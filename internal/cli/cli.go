// Package cli holds the small helpers shared by the command-line
// tools: duration parsing and workload construction from flag values.
package cli

import (
	"fmt"
	"strconv"
	"strings"

	"pbrouter/internal/sim"
	"pbrouter/internal/traffic"
)

// ParseDuration parses "500ps", "50us", "1.5ms", "2s" into sim.Time.
func ParseDuration(s string) (sim.Time, error) {
	units := []struct {
		suffix string
		mul    sim.Time
	}{
		// Longest suffixes first so "ns" does not match the "s" rule.
		{"ps", sim.Picosecond}, {"ns", sim.Nanosecond}, {"us", sim.Microsecond},
		{"ms", sim.Millisecond}, {"s", sim.Second},
	}
	for _, u := range units {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			if err != nil {
				return 0, fmt.Errorf("bad duration %q", s)
			}
			if v < 0 {
				return 0, fmt.Errorf("negative duration %q", s)
			}
			return sim.Time(v * float64(u.mul)), nil
		}
	}
	return 0, fmt.Errorf("duration %q needs a unit (ps|ns|us|ms|s)", s)
}

// List parses a comma-separated flag into its trimmed, non-empty
// items; an empty flag gives nil (the caller's default-all).
func List(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// Matrix builds a traffic matrix from its flag name.
func Matrix(name string, n int, load float64) (*traffic.Matrix, error) {
	switch name {
	case "uniform":
		return traffic.Uniform(n, load), nil
	case "diagonal":
		return traffic.Diagonal(n, load, 3), nil
	case "hotspot":
		return traffic.Hotspot(n, load, 0.05), nil
	case "incast":
		return traffic.Incast(n, load), nil
	case "failover":
		// The post-failure pattern: the last quarter of the outputs are
		// down and their traffic has re-converged onto the survivors.
		failed := make([]int, 0, n/4)
		for j := n - n/4; j < n; j++ {
			failed = append(failed, j)
		}
		return traffic.Failover(n, load, failed), nil
	default:
		return nil, fmt.Errorf("unknown matrix %q (uniform|diagonal|hotspot|incast|failover)", name)
	}
}

// Sizes builds a packet size distribution from its flag name.
func Sizes(name string) (traffic.SizeDist, error) {
	switch name {
	case "imix":
		return traffic.IMIX(), nil
	case "64":
		return traffic.Fixed(64), nil
	case "1500":
		return traffic.Fixed(1500), nil
	case "uniform":
		return traffic.UniformSize{Min: 64, Max: 1500}, nil
	default:
		return nil, fmt.Errorf("unknown sizes %q (imix|64|1500|uniform)", name)
	}
}

// Arrival builds an arrival process from its flag name.
func Arrival(name string) (traffic.ArrivalKind, error) {
	switch name {
	case "poisson":
		return traffic.Poisson, nil
	case "bursty":
		return traffic.Bursty, nil
	default:
		return 0, fmt.Errorf("unknown arrival %q (poisson|bursty)", name)
	}
}
