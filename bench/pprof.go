package main

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// A minimal reader for the gzip-compressed protobuf that runtime/pprof
// writes — just the five messages the CPU attribution needs (Sample,
// Location, Line, Function and the string table), so the benchmark stays
// stdlib-only.

// cpuProfile is a decoded profile: per sample its weight and its call
// stack as function names, innermost frame first (inlined frames
// expanded).
type cpuProfile struct {
	samples []cpuSample
}

type cpuSample struct {
	value int64
	stack []string
}

func readProfile(path string) (*cpuProfile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

var errTruncated = errors.New("pprof: truncated message")

// protoReader walks the fields of one protobuf message.
type protoReader struct{ b []byte }

func (r *protoReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errTruncated
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("pprof: varint overflow")
}

// next returns the next field: its number, and either its varint value
// (wire type 0) or its bytes (wire type 2).  Fixed-width fields are
// skipped by returning them as bytes.
func (r *protoReader) next() (field int, v uint64, data []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	field = int(key >> 3)
	var n uint64
	switch key & 7 {
	case 0:
		v, err = r.varint()
		return field, v, nil, err
	case 1:
		n = 8
	case 5:
		n = 4
	case 2:
		if n, err = r.varint(); err != nil {
			return 0, 0, nil, err
		}
	default:
		return 0, 0, nil, fmt.Errorf("pprof: unsupported wire type %d", key&7)
	}
	if uint64(len(r.b)) < n {
		return 0, 0, nil, errTruncated
	}
	data, r.b = r.b[:n], r.b[n:]
	return field, 0, data, nil
}

// repeatedVarint decodes a repeated integer field, packed (data) or not (v).
func repeatedVarint(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	r := protoReader{data}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func parseProfile(raw []byte) (*cpuProfile, error) {
	type rawSample struct{ locs, vals []uint64 }
	var (
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id → string-table index
		strs      []string
	)
	r := protoReader{raw}
	for len(r.b) > 0 {
		field, _, data, err := r.next()
		if err != nil {
			return nil, err
		}
		m := protoReader{data}
		switch field {
		case 2: // Sample{location_id=1, value=2}
			var s rawSample
			for len(m.b) > 0 {
				f, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					s.locs, err = repeatedVarint(s.locs, v, d)
				case 2:
					s.vals, err = repeatedVarint(s.vals, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // Location{id=1, line=4}; Line{function_id=1}
			var id uint64
			var fns []uint64
			for len(m.b) > 0 {
				f, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4:
					l := protoReader{d}
					for len(l.b) > 0 {
						lf, lv, _, err := l.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locLines[id] = fns
		case 5: // Function{id=1, name=2}
			var id, name uint64
			for len(m.b) > 0 {
				f, v, _, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		// Like `go tool pprof`, weigh a sample by its last value type
		// (cpu/nanoseconds for a CPU profile, after samples/count).
		cs := cpuSample{value: int64(s.vals[len(s.vals)-1])}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				idx := funcNames[fn]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("pprof: function %d names string %d of %d", fn, idx, len(strs))
				}
				cs.stack = append(cs.stack, strs[idx])
			}
		}
		p.samples = append(p.samples, cs)
	}
	return p, nil
}

// layerOf returns the layer a function belongs to: the last element of its
// ftckpt package path (the three protocol packages fold into "core", the
// placement helper into "sim"), "other" for the facade and the packages
// without a row of their own, and "" for a function outside the module.
func layerOf(fn string) string {
	if !strings.HasPrefix(fn, "ftckpt/") && !strings.HasPrefix(fn, "ftckpt.") {
		return ""
	}
	if i := strings.IndexByte(fn, '['); i >= 0 { // type arguments may hold dots and slashes
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return "other"
	}
	pkg := fn[:slash+1+dot]
	switch {
	case strings.HasPrefix(pkg, "ftckpt/internal/core"):
		return "core"
	case strings.HasPrefix(pkg, "ftckpt/internal/sim/"):
		return "sim"
	}
	name := pkg[strings.LastIndexByte(pkg, '/')+1:]
	for _, l := range cpuLayers {
		if l == name && l != "go" && l != "other" {
			return l
		}
	}
	return "other"
}

// Leaf and stack markers of the go.* shares.  They classify the same
// samples a second way, so they overlap the *.cpu_frac buckets.
var (
	handoffLeaves = []string{"runtime.chanrecv", "runtime.chansend", "runtime.gopark", "runtime.schedule",
		"runtime.ready", "runtime.casgstatus"}
	allocLeaves = []string{"runtime.mallocgc", "runtime.growslice", "runtime.memclr"}
	gcFrames    = []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.(*sweepLocked)"}
)

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// cpuShares charges every sample to the layer of its innermost ftckpt
// frame ("go" when it has none) and returns each layer's share of the
// total — the shares sum to 1 — plus the three go.* shares: samples with a
// garbage-collector frame anywhere on the stack, and samples whose leaf is
// a goroutine-handoff or an allocation primitive.
func cpuShares(p *cpuProfile) (layers map[string]float64, gc, handoff, alloc float64) {
	layers = map[string]float64{}
	var total float64
	for _, s := range p.samples {
		v := float64(s.value)
		total += v
		layer := "go"
		inGC := false
		for _, fn := range s.stack {
			if l := layerOf(fn); l != "" && layer == "go" {
				layer = l
			}
			inGC = inGC || hasAnyPrefix(fn, gcFrames)
		}
		layers[layer] += v
		if inGC {
			gc += v
		}
		if len(s.stack) > 0 {
			if hasAnyPrefix(s.stack[0], handoffLeaves) {
				handoff += v
			}
			if hasAnyPrefix(s.stack[0], allocLeaves) {
				alloc += v
			}
		}
	}
	if total == 0 {
		return layers, 0, 0, 0
	}
	for l := range layers {
		layers[l] /= total
	}
	return layers, gc / total, handoff / total, alloc / total
}
