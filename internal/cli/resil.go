package cli

import (
	"fmt"

	"pbrouter/internal/sim"
)

// This file holds the resilience-campaign flag parsing shared by the
// availability tools: -mtbf and its -fault-rate alternative resolve
// through one code path with one error wording. The resolved MTBF/MTTR
// pair is checked by resilience.SweepConfig.Check.

// ValidateFaultRate checks a -fault-rate flag (mean fault arrivals per
// simulated second). Zero means "not set"; negative rates are always
// invalid.
func ValidateFaultRate(rate float64) error {
	if rate < 0 {
		return fmt.Errorf("-fault-rate %g: fault arrival rate cannot be negative", rate)
	}
	return nil
}

// MTBF resolves the mutually exclusive -mtbf (a simulated duration)
// and -fault-rate (arrivals per simulated second) flags into one mean
// time between faults. Exactly one must be set; rate 0 and an empty
// duration both mean "unset".
func MTBF(mtbfFlag string, faultRate float64) (sim.Time, error) {
	if err := ValidateFaultRate(faultRate); err != nil {
		return 0, err
	}
	switch {
	case mtbfFlag != "" && faultRate > 0:
		return 0, fmt.Errorf("-mtbf and -fault-rate are mutually exclusive (one is the reciprocal of the other)")
	case mtbfFlag != "":
		return Duration("-mtbf", mtbfFlag)
	case faultRate > 0:
		return sim.Time(float64(sim.Second) / faultRate), nil
	default:
		return 0, fmt.Errorf("set -mtbf (duration) or -fault-rate (faults per simulated second)")
	}
}
