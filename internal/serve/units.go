package serve

import (
	"context"
	"encoding/json"
	"fmt"
)

// RunUnit and AssembleUnits expose the job-kind contract (jobKind)
// across processes: a unit runs anywhere — any worker count, process
// or machine — and the complete unit set assembles to the single-node
// bytes. The fleet coordinator (internal/fleet) is built on this pair.

// RunUnit executes unit u of the spec and returns its raw checkpoint
// payload: a []validate.CaseOutcome chunk for validate jobs, a
// telemetry.SweepPoint for the point sweeps, and the full result JSON
// for the atomic kinds (sim, sweep; their only unit is 0). The spec
// must be normalized and checked. Units depend only on (spec, u):
// payloads are identical wherever and however often they run.
func RunUnit(ctx context.Context, spec Spec, u, workers int) (json.RawMessage, error) {
	k := spec.kind()
	if n := k.units(); u < 0 || u >= n {
		return nil, fmt.Errorf("serve: unit %d out of range 0..%d", u, n-1)
	}
	return k.run(ctx, u, runEnv{id: "unit", workers: workers, emit: func(any) {}})
}

// AssembleUnits rebuilds the job result from the raw payloads of
// units 0..UnitCount-1, in unit order. It runs the merge path an
// uninterrupted daemon run uses, so the bytes are identical to a
// single-node run at the same seed. Like runSpec, it returns a
// *FoundError next to the complete result when the run itself found
// violations or failures.
func AssembleUnits(spec Spec, units []json.RawMessage) ([]byte, error) {
	k := spec.kind()
	if got, want := len(units), k.units(); got != want {
		return nil, fmt.Errorf("serve: assemble %s: have %d units, want %d", spec.Kind, got, want)
	}
	return k.assemble(units)
}
