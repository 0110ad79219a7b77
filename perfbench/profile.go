package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// The traced half of a run is CPU-profiled, and each sample is charged
// to a layer: the innermost frame that belongs to a package of this
// module names the layer ("bench" for the benchmark's own code), so
// standard-library work such as sorting or allocating counts against
// the layer that asked for it. Stacks with no module frame count as
// "runtime" when every frame is the Go runtime (GC, scheduler) and as
// "other" otherwise (net/http's connection handling, for instance).

// cpuPackages are the packages whose share is reported; samples in any
// other module package count as "other".
var cpuPackages = []string{
	"traffic", "workload", "sim", "hbmswitch", "hbm", "core", "stats",
	"packet", "baseline", "serve", "validate", "runtime", "bench", "other",
}

const modulePrefix = "pbrouter/internal/"

// profileHz is the CPU profile's sampling rate. The default 100 Hz
// gives a traced half of a run too few samples for profileGap to tell
// a layer's share within a point or two.
const profileHz = 1000

// startProfile starts the CPU profiler at profileHz; the returned
// function stops it and returns the encoded profile. The rate is set
// before pprof starts, which then cannot lower it and prints a warning
// to standard error saying so. The profile's sample values are scaled
// for pprof's own 100 Hz, so only their ratios are used.
func startProfile() (func() []byte, error) {
	runtime.SetCPUProfileRate(profileHz)
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return func() []byte {
		pprof.StopCPUProfile()
		return buf.Bytes()
	}, nil
}

// cpuShares returns each reported package's share of the profile's CPU
// samples. An empty profile gives all zeros.
func cpuShares(samples []sample) map[string]float64 {
	out := make(map[string]float64, len(cpuPackages))
	for _, p := range cpuPackages {
		out[p] = 0
	}
	total := 0.0
	for _, s := range samples {
		total += s.value
	}
	if total == 0 {
		return out
	}
	for _, s := range samples {
		pkg := layerOf(s.funcs)
		if _, ok := out[pkg]; !ok {
			pkg = "other"
		}
		out[pkg] += s.value / total
	}
	return out
}

// layerOf charges a stack (innermost frame first) to a layer.
func layerOf(funcs []string) string {
	allRuntime := true
	for _, f := range funcs {
		switch {
		case strings.HasPrefix(f, modulePrefix):
			return packageOf(f)
		case strings.HasPrefix(f, "main."):
			return "bench"
		case !strings.HasPrefix(f, "runtime.") && !strings.HasPrefix(f, "runtime/") &&
			!strings.HasPrefix(f, "internal/"):
			allRuntime = false
		}
	}
	if allRuntime {
		return "runtime"
	}
	return "other"
}

// packageOf returns the last element of a function's package path:
// "pbrouter/internal/traffic.(*Mux).Next" -> "traffic".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold slashes and dots
	}
	fn = fn[strings.LastIndexByte(fn, '/')+1:]
	if i := strings.IndexByte(fn, '.'); i >= 0 {
		fn = fn[:i]
	}
	return fn
}

// sample is one profile sample: its stack (innermost frame first, with
// inlined frames expanded) and its last value (CPU nanoseconds).
type sample struct {
	funcs []string
	value float64
}

// decodeProfile reads the gzipped profile.proto the runtime writes:
// just the samples, locations, functions and string table.
func decodeProfile(prof []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id -> string index
		strs    []string
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					s.values = appendPacked(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var funcs []string
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				if idx := fnName[f]; idx < uint64(len(strs)) {
					funcs = append(funcs, strs[idx])
				}
			}
		}
		out = append(out, sample{funcs: funcs, value: float64(s.values[len(s.values)-1])})
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// fields walks one protobuf message, calling f with each field's
// number and either its varint value or its length-delimited bytes.
func fields(b []byte, f func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0: // varint
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1: // fixed64
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			if err := f(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5: // fixed32
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", key&7)
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, which the encoder may
// write either packed (b holds the varints) or one value per field.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
