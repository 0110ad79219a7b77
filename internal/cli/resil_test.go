package cli

import (
	"testing"

	"pbrouter/internal/sim"
)

func TestValidateFaultRate(t *testing.T) {
	if err := ValidateFaultRate(0); err != nil {
		t.Errorf("rate 0 (unset) rejected: %v", err)
	}
	if err := ValidateFaultRate(2.5e6); err != nil {
		t.Errorf("positive rate rejected: %v", err)
	}
	if err := ValidateFaultRate(-1); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestMTBFResolvesFlagAlternatives(t *testing.T) {
	got, err := MTBF("40us", 0)
	if err != nil || got != 40*sim.Microsecond {
		t.Fatalf("MTBF(40us, 0) = %v, %v", got, err)
	}
	// 2e6 faults per simulated second = 500 ns between faults.
	got, err = MTBF("", 2e6)
	if err != nil || got != 500*sim.Nanosecond {
		t.Fatalf("MTBF(\"\", 2e6) = %v, %v", got, err)
	}
	if _, err := MTBF("40us", 2e6); err == nil {
		t.Error("both flags set was accepted")
	}
	if _, err := MTBF("", 0); err == nil {
		t.Error("neither flag set was accepted")
	}
	if _, err := MTBF("", -3); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := MTBF("40", 0); err == nil {
		t.Error("unitless duration accepted")
	}
}
