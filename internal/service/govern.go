package service

import (
	"fmt"
	"net/http"

	"glitchsim"
	"glitchsim/netlist"
)

// Admission control: before compiling or simulating anything, the
// server predicts each measurement's cost from netlist statistics
// (glitchsim.EstimateCost) and compares it against the operator's
// Limits. Requests that cannot possibly be served answer 422
// "cost_exceeded" immediately; requests that are merely expensive are
// shed with 429 "overloaded" while the engine is saturated, so cheap
// requests keep flowing under load.

// Limits is the server's admission policy, configured with WithLimits.
// The zero value admits everything.
type Limits struct {
	// MaxEstimatedEvents rejects (422 "cost_exceeded") any measurement
	// whose estimated kernel event count exceeds it, regardless of load.
	MaxEstimatedEvents uint64
	// MaxEstimatedMemoryBytes rejects measurements whose estimated
	// compiled-netlist-plus-kernel footprint exceeds it.
	MaxEstimatedMemoryBytes uint64
	// ShedEstimatedEvents sheds (429 "overloaded", with Retry-After)
	// measurements above it while every engine slot is busy. Cheaper
	// requests still queue for a slot as usual.
	ShedEstimatedEvents uint64
}

// IsZero reports whether the limits admit everything.
func (l Limits) IsZero() bool { return l == Limits{} }

// WithLimits sets the server's admission policy for measurement
// requests (synchronous and async submissions alike).
func WithLimits(l Limits) Option {
	return func(s *Server) { s.limits = l }
}

// WithDefaultBudget bounds every measurement whose request carries no
// budget of its own. Clients can tighten the budget per request but a
// request budget replaces (never extends) the default, so an operator
// default is only a backstop against runaway requests if clients
// cannot be trusted — pair it with Limits for a hard ceiling.
func WithDefaultBudget(b glitchsim.Budget) Option {
	return func(s *Server) { s.defaultBudget = b }
}

// admitMeasure applies the admission policy to one measurement: false
// means the response was already written (422 cost_exceeded or 429
// overloaded). cfg is the request's config as handed to measure —
// engine defaults are applied by EstimateCost itself.
func (s *Server) admitMeasure(w http.ResponseWriter, nl *netlist.Netlist, cfg glitchsim.Config) bool {
	if s.limits.IsZero() {
		return true
	}
	est, err := s.engine.EstimateCost(glitchsim.MeasureRequest{Circuit: glitchsim.CircuitFromNetlist(nl), Config: cfg})
	if err != nil {
		// Estimation never fails for an already-resolved netlist; fail
		// open rather than reject on an internal inconsistency.
		return true
	}
	detail := map[string]any{
		"estimated_events":       est.Events,
		"estimated_memory_bytes": est.MemoryBytes,
		"steps":                  est.Steps,
		"lanes":                  est.Lanes,
	}
	if lim := s.limits.MaxEstimatedEvents; lim > 0 && est.Events > lim {
		detail["limit_events"] = lim
		s.writeErrorDetail(w, http.StatusUnprocessableEntity, CodeCostExceeded,
			fmt.Errorf("estimated cost %d events exceeds the server limit of %d", est.Events, lim), detail)
		return false
	}
	if lim := s.limits.MaxEstimatedMemoryBytes; lim > 0 && est.MemoryBytes > lim {
		detail["limit_memory_bytes"] = lim
		s.writeErrorDetail(w, http.StatusUnprocessableEntity, CodeCostExceeded,
			fmt.Errorf("estimated footprint %d bytes exceeds the server limit of %d", est.MemoryBytes, lim), detail)
		return false
	}
	if lim := s.limits.ShedEstimatedEvents; lim > 0 && est.Events > lim {
		if active, capacity := s.engine.Load(); capacity > 0 && active >= capacity {
			detail["limit_events"] = lim
			w.Header().Set("Retry-After", "1")
			s.writeErrorDetail(w, http.StatusTooManyRequests, CodeOverloaded,
				fmt.Errorf("engine saturated (%d/%d slots); request estimated at %d events exceeds the shed threshold of %d",
					active, capacity, est.Events, lim), detail)
			return false
		}
	}
	return true
}
