package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// CheckpointSchema versions the on-disk job file. The fleet
// coordinator (internal/fleet) persists its jobs in the same format,
// so one decoder serves both daemons.
const CheckpointSchema = "spsd-checkpoint/1"

// Checkpoint is one job on disk: <dir>/<id>.json. Queued and running
// jobs persist their spec plus completed units so a restarted daemon
// resumes them; terminal jobs keep their result so a restart still
// serves it. Results and units are stored as raw JSON — every job
// kind's result is JSON, so the file stays greppable. The daemon
// stores unit payloads directly (validate case chunks, resilience
// sweep points, in prefix order); the fleet coordinator stores
// {"unit":N,"payload":...} envelopes because its units complete out
// of order.
type Checkpoint struct {
	Schema string            `json:"schema"`
	ID     string            `json:"id"`
	State  State             `json:"state"`
	Error  string            `json:"error,omitempty"`
	Spec   Spec              `json:"spec"`
	Units  []json.RawMessage `json:"units,omitempty"`
	Result json.RawMessage   `json:"result,omitempty"`
}

// DecodeCheckpoint parses one spsd-checkpoint/1 file.
func DecodeCheckpoint(b []byte) (Checkpoint, error) {
	var cp Checkpoint
	if err := json.Unmarshal(b, &cp); err != nil {
		return Checkpoint{}, err
	}
	if cp.Schema != CheckpointSchema {
		return Checkpoint{}, fmt.Errorf("serve: unknown checkpoint schema %q", cp.Schema)
	}
	return cp, nil
}

// Encode serializes the checkpoint as its on-disk bytes.
func (cp Checkpoint) Encode() ([]byte, error) {
	cp.Schema = CheckpointSchema
	b, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteCheckpointFile persists the checkpoint atomically (temp file +
// rename) as <dir>/<id>.json.
func WriteCheckpointFile(dir string, cp Checkpoint) error {
	b, err := cp.Encode()
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, cp.ID+".json.tmp")
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, cp.ID+".json"))
}

// LoadCheckpointDir reads every checkpoint file in the directory, in
// ID order. A missing directory is an empty fleet of jobs, not an
// error.
func LoadCheckpointDir(dir string) ([]Checkpoint, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var cps []Checkpoint
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		cp, err := DecodeCheckpoint(b)
		if err != nil {
			return nil, fmt.Errorf("serve: checkpoint %s: %w", name, err)
		}
		cps = append(cps, cp)
	}
	sort.Slice(cps, func(a, b int) bool { return cps[a].ID < cps[b].ID })
	return cps, nil
}

// loadCheckpoints restores a job table from dir. Jobs that were
// queued or running when the daemon died come back queued (their
// completed units intact); terminal jobs come back exactly as they
// ended. Every spec must pass the checks a submission does and carry
// at most its unit count, or the file is rejected.
func loadCheckpoints(dir string, d Daemon) ([]*Job, error) {
	cps, err := LoadCheckpointDir(dir)
	if err != nil {
		return nil, err
	}
	var jobs []*Job
	for _, cp := range cps {
		j, err := resumeJob(cp, d)
		if err != nil {
			return nil, fmt.Errorf("serve: checkpoint %s.json: %w", cp.ID, err)
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// resumeJob validates one checkpoint and rebuilds its job.
func resumeJob(cp Checkpoint, d Daemon) (*Job, error) {
	k, err := admit(&cp.Spec)
	if err != nil {
		return nil, err
	}
	n := k.units()
	if len(cp.Units) > n {
		return nil, fmt.Errorf("%d units for a %d-unit job", len(cp.Units), n)
	}
	units, err := d.DecodeUnits(cp.Units, n)
	if err != nil {
		return nil, err
	}
	j := &Job{
		ID:     cp.ID,
		Spec:   cp.Spec,
		State:  cp.State,
		Error:  cp.Error,
		Result: cp.Result,
		units:  units,
		stream: newStream(),
	}
	for _, u := range units {
		if u != nil {
			j.done++
		}
	}
	if j.State.Terminal() {
		j.stream.closeStream()
	} else {
		j.State = StateQueued
	}
	return j, nil
}

// spsd completes units in order, so its units always form a prefix
// and its checkpoints store the raw payloads of that prefix.

// prefixLen counts the completed units before the first pending one.
func prefixLen(units []json.RawMessage) int {
	n := 0
	for n < len(units) && units[n] != nil {
		n++
	}
	return n
}

func encodePrefix(units []json.RawMessage) ([]json.RawMessage, error) {
	return units[:prefixLen(units)], nil
}

func decodePrefix(entries []json.RawMessage, n int) ([]json.RawMessage, error) {
	units := make([]json.RawMessage, n)
	copy(units, entries)
	return units, nil
}
