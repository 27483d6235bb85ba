package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the per-layer CPU rows, in report order. Each names a package
// of the program (mali/isa reports as isa); crypto covers the standard
// library's crypto packages; runtime and other are the residual rows.
var layers = []string{
	"gpumem", "record", "shim", "netsim", "kbase", "mali", "isa", "mlfw",
	"trace", "crypto", "replay", "castore", "cloud", "runtime", "other",
}

// layerOf maps a package path to its CPU row. helper reports packages whose
// self time is charged to the nearest non-helper caller instead: the runtime
// (allocation, memmove, hashing), the standard library's internal packages,
// and every other standard-library package except crypto. Stacks made only
// of helpers (GC workers, the scheduler) land in the runtime row.
func layerOf(pkg string) (layer string, helper bool) {
	switch {
	case strings.HasPrefix(pkg, "gpurelay/internal/"):
		name := strings.TrimPrefix(pkg, "gpurelay/internal/")
		if name == "mali/isa" {
			return "isa", false
		}
		for _, l := range layers {
			if l == name {
				return l, false
			}
		}
		return "other", false
	case pkg == "crypto" || strings.HasPrefix(pkg, "crypto/"):
		return "crypto", false
	case !strings.Contains(strings.SplitN(pkg, "/", 2)[0], ".") && !strings.HasPrefix(pkg, "gpurelay"):
		// Standard library (no domain in the first path element), which
		// includes the runtime, and "main" for this benchmark's own code.
		if pkg == "main" {
			return "other", false
		}
		return "runtime", true
	}
	return "other", false
}

// packageOf extracts the package path from a fully qualified Go function
// name such as "gpurelay/internal/gpumem.(*Snapshot).Encode".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// cpuByLayer decodes a gzipped pprof CPU profile and returns CPU time per
// layer in nanoseconds, charging each sample to the innermost frame that is
// not a helper (see layerOf).
func cpuByLayer(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(layers))
	for _, s := range p.samples {
		if len(s.values) < 2 {
			continue
		}
		out[p.layerOfStack(s.locs)] += s.values[1]
	}
	return out, nil
}

type sample struct {
	locs   []uint64
	values []int64
}

// profile holds the parts of a pprof profile.proto the split needs.
type profile struct {
	samples []sample
	locFns  map[uint64][]uint64 // location id → function ids, innermost first
	fnName  map[uint64]int64    // function id → string table index
	strs    []string
}

func (p *profile) layerOfStack(locs []uint64) string {
	for _, loc := range locs {
		for _, fn := range p.locFns[loc] {
			idx := p.fnName[fn]
			if idx < 0 || int(idx) >= len(p.strs) {
				continue
			}
			if layer, helper := layerOf(packageOf(p.strs[idx])); !helper {
				return layer
			}
		}
	}
	return "runtime"
}

// parseProfile is a minimal protobuf decoder for the message fields of
// profile.proto used here: Profile.sample (2), .location (4), .function (5)
// and .string_table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFns: map[uint64][]uint64{}, fnName: map[uint64]int64{}}
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case 2:
			var s sample
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, d)
				case 2:
					for _, u := range appendVarints(nil, w, v, d) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(d, func(lf, lw int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locFns[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(data, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.fnName[id] = name
			return err
		case 6:
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated varint field that may be packed (wire
// type 2) or not (wire type 0).
func appendVarints(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		u, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		data = data[n:]
	}
	return dst
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with the field number,
// wire type, and the varint value (wire type 0) or payload (wire type 2).
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
