package glitchsim_test

import (
	"context"
	"sync"
	"testing"

	"glitchsim"
)

// collectEvents drains a session's event stream concurrently with the
// calling test's session method, returning the events after Close.
func collectEvents(s *glitchsim.Session) (<-chan []glitchsim.Event, func()) {
	out := make(chan []glitchsim.Event, 1)
	go func() {
		var evs []glitchsim.Event
		for ev := range s.Events() {
			evs = append(evs, ev)
		}
		out <- evs
	}()
	return out, s.Close
}

// TestSessionSeedEvents: a seed sweep emits one EventSeed per seed plus
// a final EventResult, and the blocking return value matches the
// non-session engine path.
func TestSessionSeedEvents(t *testing.T) {
	e := glitchsim.NewEngine()
	sess := e.NewSession(context.Background())
	evc, closeSess := collectEvents(sess)

	seeds := []uint64{1, 2, 3, 4, 5}
	req := glitchsim.SeedSweepRequest{
		Circuit: glitchsim.CircuitFromNetlist(glitchsim.NewRCA(8)), Config: glitchsim.Config{Cycles: 30}, Seeds: seeds,
	}
	agg, err := sess.MeasureSeeds(req)
	if err != nil {
		t.Fatal(err)
	}
	closeSess()
	evs := <-evc

	var seedEvents, resultEvents int
	seen := make(map[int]bool)
	for _, ev := range evs {
		switch ev.Kind {
		case glitchsim.EventSeed:
			seedEvents++
			seen[ev.Index] = true
			if ev.Total != len(seeds) {
				t.Errorf("seed event total = %d, want %d", ev.Total, len(seeds))
			}
			if ev.Activity == nil || ev.Err != nil {
				t.Errorf("seed event incomplete: %+v", ev)
			}
		case glitchsim.EventResult:
			resultEvents++
			if ev.Activity == nil || ev.Activity.Cycles != agg.Cycles() {
				t.Errorf("result event does not match aggregate: %+v", ev)
			}
		}
	}
	if seedEvents != len(seeds) || len(seen) != len(seeds) {
		t.Errorf("saw %d seed events over %d distinct indices, want %d", seedEvents, len(seen), len(seeds))
	}
	if resultEvents != 1 {
		t.Errorf("saw %d result events, want 1", resultEvents)
	}

	// The session's blocking result must equal the plain engine path.
	direct, err := e.MeasureSeeds(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Totals() != direct.Totals() {
		t.Errorf("session aggregate %+v != engine aggregate %+v", agg.Totals(), direct.Totals())
	}
}

// TestSessionTableRowEvents: Table1 emits one EventRow per multiplier
// row with the row payload attached.
func TestSessionTableRowEvents(t *testing.T) {
	e := glitchsim.NewEngine()
	sess := e.NewSession(context.Background())
	evc, closeSess := collectEvents(sess)

	rows, err := sess.Table1(glitchsim.ExperimentRequest{Cycles: 20})
	if err != nil {
		t.Fatal(err)
	}
	closeSess()
	evs := <-evc

	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	rowEvents := 0
	for _, ev := range evs {
		if ev.Kind != glitchsim.EventRow {
			continue
		}
		rowEvents++
		if ev.Mult == nil {
			t.Errorf("row event without payload: %+v", ev)
			continue
		}
		if *ev.Mult != rows[ev.Index] {
			t.Errorf("row event %d payload %+v != returned row %+v", ev.Index, *ev.Mult, rows[ev.Index])
		}
	}
	if rowEvents != 4 {
		t.Errorf("saw %d row events, want 4", rowEvents)
	}
}

// TestSessionCancelledConsumer: when the session context dies, emits are
// dropped rather than wedging the measurement pool, and the method
// returns the context error.
func TestSessionCancelledConsumer(t *testing.T) {
	e := glitchsim.NewEngine()
	ctx, cancel := context.WithCancel(context.Background())
	sess := e.NewSession(ctx)
	cancel() // no consumer ever reads Events()

	_, err := sess.MeasureSeeds(glitchsim.SeedSweepRequest{
		Circuit: glitchsim.CircuitFromNetlist(glitchsim.NewRCA(8)), Config: glitchsim.Config{Cycles: 30}, Seeds: []uint64{1, 2, 3},
	})
	if err == nil {
		t.Fatal("cancelled session measured successfully")
	}
	sess.Close()
}

// TestSessionFuncTap: a NewSessionFunc session delivers events to its
// callback (from concurrent worker goroutines) instead of the channel,
// and the channel stays empty.
func TestSessionFuncTap(t *testing.T) {
	e := glitchsim.NewEngine()
	var mu sync.Mutex
	var got []glitchsim.Event
	sess := e.NewSessionFunc(context.Background(), func(ev glitchsim.Event) {
		mu.Lock()
		got = append(got, ev)
		mu.Unlock()
	})
	evc, closeSess := collectEvents(sess)

	seeds := []uint64{1, 2, 3}
	if _, err := sess.MeasureSeeds(glitchsim.SeedSweepRequest{
		Circuit: glitchsim.CircuitFromNetlist(glitchsim.NewRCA(8)), Config: glitchsim.Config{Cycles: 30}, Seeds: seeds,
	}); err != nil {
		t.Fatal(err)
	}
	closeSess()
	if chanEvents := <-evc; len(chanEvents) != 0 {
		t.Fatalf("func session leaked %d events onto the channel", len(chanEvents))
	}

	mu.Lock()
	defer mu.Unlock()
	seedEvents, results := 0, 0
	for _, ev := range got {
		switch ev.Kind {
		case glitchsim.EventSeed:
			seedEvents++
		case glitchsim.EventResult:
			results++
		}
	}
	if seedEvents != len(seeds) || results != 1 {
		t.Fatalf("tap saw %d seed events and %d results, want %d and 1", seedEvents, results, len(seeds))
	}
}
