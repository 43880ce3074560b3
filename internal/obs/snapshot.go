package obs

import "time"

// PhaseTimes is the wall-clock split of one flow across the paper's
// phases: Route is Phase I (budgeting + shield-aware routing), Order is
// Phase II (instance construction + SINO in every region), Refine is
// Phase III (two-pass local refinement; zero for the baseline flows).
// Durations are observational only and never enter report bytes.
type PhaseTimes struct {
	Route, Order, Refine time.Duration
}
