package service

import (
	"bytes"
	"encoding/json"
	"net/url"
	"testing"

	"glitchsim"
	"glitchsim/internal/sim"
)

// FuzzMeasureParams feeds arbitrary input to the /v1/measure request
// decoders — as a JSON body and as a query string — and resolves the
// result with config(). Neither step may panic, and config() accepting
// the request means its delay model is one the simulator takes: a
// delay table built from it on rca4 has no negative delay.
func FuzzMeasureParams(f *testing.F) {
	for _, seed := range []string{
		`{"circuit":"rca8","cycles":100,"seed":7}`,
		`{"circuit":"rca8","dsum":2,"dcarry":1}`,
		`{"circuit":"rca8","dsum":-1,"dcarry":-1}`,
		`{"circuit":"rca8","dsum":0,"dcarry":-5,"typical":true}`,
		`{"circuit":"rca8","dsum":2147483648,"dcarry":1}`,
		`{"circuit":"array8","cycles":0,"warmup":0,"lanes":1,"inertial":true}`,
		`circuit=rca8&dsum=-1&dcarry=3`,
		`circuit=rca8&dsum=70000&dcarry=70000&seeds=1,2,3`,
	} {
		f.Add(seed)
	}
	rca4 := sim.Compile(glitchsim.NewRCA(4))
	f.Fuzz(func(t *testing.T, in string) {
		var decoded []MeasureParams
		var p MeasureParams
		dec := json.NewDecoder(bytes.NewReader([]byte(in)))
		dec.DisallowUnknownFields()
		if dec.Decode(&p) == nil {
			decoded = append(decoded, p)
		}
		if q, err := url.ParseQuery(in); err == nil {
			var p MeasureParams
			if paramsFromQuery(q, &p) == nil {
				decoded = append(decoded, p)
			}
		}
		for _, p := range decoded {
			cfg, err := p.config()
			if err != nil || cfg.Delay == nil {
				continue
			}
			if dt := sim.NewDelayTable(rca4, cfg.Delay); dt.Min() < 0 {
				t.Fatalf("config accepted %+v with negative delay %d", p, dt.Min())
			}
		}
	})
}
