package cli

import (
	"strings"
	"testing"

	"pbrouter/internal/sim"
	"pbrouter/internal/traffic"
)

func TestParseDuration(t *testing.T) {
	cases := []struct {
		in   string
		want sim.Time
	}{
		{"500ps", 500},
		{"5ns", 5 * sim.Nanosecond},
		{"50us", 50 * sim.Microsecond},
		{"1.5ms", sim.Time(1.5 * float64(sim.Millisecond))},
		{"2s", 2 * sim.Second},
		{"0us", 0},
	}
	for _, c := range cases {
		got, err := ParseDuration(c.in)
		if err != nil {
			t.Fatalf("%q: %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("%q: %v want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "5", "5x", "abcus", "-1us", "us"} {
		if _, err := ParseDuration(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

func TestParseDurationNsNotSwallowedByS(t *testing.T) {
	// "5ns" must parse as nanoseconds, not "5n" seconds.
	got, err := ParseDuration("5ns")
	if err != nil || got != 5*sim.Nanosecond {
		t.Fatalf("got %v err %v", got, err)
	}
}

func TestMatrixNames(t *testing.T) {
	for _, name := range []string{"uniform", "diagonal", "hotspot", "failover"} {
		m, err := Matrix(name, 8, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if !m.Admissible(1e-9) {
			t.Fatalf("%s inadmissible", name)
		}
	}
	if _, err := Matrix("nope", 8, 0.5); err == nil {
		t.Fatal("unknown matrix accepted")
	}
}

func TestSizesNames(t *testing.T) {
	for _, name := range []string{"imix", "64", "1500", "uniform"} {
		d, err := Sizes(name)
		if err != nil || d == nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := Sizes("nope"); err == nil {
		t.Fatal("unknown sizes accepted")
	}
}

func TestArrivalNames(t *testing.T) {
	if k, err := Arrival("poisson"); err != nil || k != traffic.Poisson {
		t.Fatal("poisson")
	}
	if k, err := Arrival("bursty"); err != nil || k != traffic.Bursty {
		t.Fatal("bursty")
	}
	if _, err := Arrival("nope"); err == nil {
		t.Fatal("unknown arrival accepted")
	}
}

func TestList(t *testing.T) {
	if got := List(""); got != nil {
		t.Errorf("List(\"\") = %q, want nil", got)
	}
	if got := strings.Join(List(" sps, ,oq,"), "|"); got != "sps|oq" {
		t.Errorf("List trims and drops empty items: got %q", got)
	}
}
