package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"sort"
	"strings"
)

// cpuGroups are the flat-profile groups reported as cpu.<group>: the
// simulator's timing-model packages, then the runtime's map, collector and
// allocator, then everything else.
var cpuGroups = []string{
	"texture", "tfim", "cache", "hmc", "dram", "sim", "raster", "shader", "gpu",
	"runtime_map", "runtime_gc", "malloc", "other",
}

// pkgGroup maps a profiled function to its cpu.<group>.
func pkgGroup(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		pkg := rest
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, g := range cpuGroups[:9] {
			if pkg == g {
				return g
			}
		}
		return "other"
	}
	switch {
	case strings.HasPrefix(fn, "internal/runtime/maps."),
		strings.HasPrefix(fn, "runtime.map"),
		strings.HasPrefix(fn, "runtime.evacuate"),
		strings.HasPrefix(fn, "runtime.growWork"),
		strings.HasPrefix(fn, "runtime.memhash"),
		strings.HasPrefix(fn, "runtime.aeshash"),
		strings.HasPrefix(fn, "aeshash"):
		return "runtime_map"
	case strings.HasPrefix(fn, "runtime.gc"),
		strings.HasPrefix(fn, "runtime.scan"),
		strings.HasPrefix(fn, "runtime.greyobject"),
		strings.HasPrefix(fn, "runtime.findObject"),
		strings.HasPrefix(fn, "runtime.markBits"),
		strings.HasPrefix(fn, "runtime.mark"),
		strings.HasPrefix(fn, "runtime.(*gcWork)"),
		strings.HasPrefix(fn, "runtime.(*gcBits)"),
		strings.HasPrefix(fn, "runtime.(*mspan).sweep"),
		strings.HasPrefix(fn, "runtime.sweepone"),
		strings.HasPrefix(fn, "runtime.bgsweep"),
		strings.HasPrefix(fn, "runtime.wbBuf"),
		strings.HasPrefix(fn, "runtime.bulkBarrier"),
		strings.HasPrefix(fn, "runtime.typePointers"),
		strings.HasPrefix(fn, "runtime.(*mheap).freeSpan"):
		return "runtime_gc"
	case strings.HasPrefix(fn, "runtime.mallocgc"),
		strings.HasPrefix(fn, "runtime.newobject"),
		strings.HasPrefix(fn, "runtime.makeslice"),
		strings.HasPrefix(fn, "runtime.growslice"),
		strings.HasPrefix(fn, "runtime.memclrNoHeapPointers"),
		strings.HasPrefix(fn, "runtime.nextFreeFast"),
		strings.HasPrefix(fn, "runtime.heapSetType"),
		strings.HasPrefix(fn, "runtime.(*mcache)"),
		strings.HasPrefix(fn, "runtime.(*mcentral)"),
		strings.HasPrefix(fn, "runtime.(*mheap).alloc"),
		strings.HasPrefix(fn, "runtime.(*mspan).nextFreeIndex"):
		return "malloc"
	}
	return "other"
}

// cpuProfile records a CPU profile of this process around fn.
func cpuProfile(fn func() error) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	err := fn()
	pprof.StopCPUProfile()
	return buf.Bytes(), err
}

// profileShares decodes a gzipped pprof CPU profile and returns each
// cpuGroups entry's share of the sampled CPU time, attributing every
// sample to its leaf function (flat profile), and the leaf functions
// with the largest shares.
func profileShares(data []byte) (shares map[string]float64, top []leafShare, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, nil, err
	}
	byGroup := map[string]int64{}
	byFunc := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1]
		total += v
		name := ""
		if len(s.locations) > 0 {
			name = p.leafName(s.locations[0])
		}
		byGroup[pkgGroup(name)] += v
		byFunc[name] += v
	}
	if total == 0 {
		return nil, nil, fmt.Errorf("profile: no samples")
	}
	shares = make(map[string]float64, len(cpuGroups))
	for _, g := range cpuGroups {
		shares[g] = float64(byGroup[g]) / float64(total)
	}
	for name, v := range byFunc {
		top = append(top, leafShare{Func: name, Group: pkgGroup(name), Share: float64(v) / float64(total)})
	}
	sort.Slice(top, func(i, j int) bool { return top[i].Share > top[j].Share })
	if len(top) > topLeaves {
		top = top[:topLeaves]
	}
	return shares, top, nil
}

// topLeaves is how many leaf functions a report lists.
const topLeaves = 15

// leafShare is one leaf function's share of a CPU profile.
type leafShare struct {
	Func  string  `json:"func"`
	Group string  `json:"group"`
	Share float64 `json:"share"`
}

// profile holds the parts of a profile.proto message the flat grouping
// reads.
type profile struct {
	samples  []profSample
	locFunc  map[uint64]uint64 // location id → innermost function id
	funcName map[uint64]int64  // function id → string-table index
	strings  []string
}

type profSample struct {
	locations []uint64
	values    []int64
}

func (p *profile) leafName(loc uint64) string {
	fn, ok := p.locFunc[loc]
	if !ok {
		return ""
	}
	i, ok := p.funcName[fn]
	if !ok || i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

var errTruncated = errors.New("profile: truncated message")

// protoField is one decoded field of a protobuf message.
type protoField struct {
	num   int
	wire  int
	value uint64 // varint or fixed-width value
	bytes []byte // length-delimited payload
}

// protoFields splits a protobuf message into its fields.
func protoFields(b []byte) ([]protoField, error) {
	var out []protoField
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		b = b[n:]
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return nil, errTruncated
			}
			f.value, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errTruncated
			}
			for i := 7; i >= 0; i-- {
				f.value = f.value<<8 | uint64(b[i])
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errTruncated
			}
			f.bytes, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errTruncated
			}
			for i := 3; i >= 0; i-- {
				f.value = f.value<<8 | uint64(b[i])
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// repeatedInts decodes a repeated integer field, packed or not.
func repeatedInts(f protoField) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.value}, nil
	}
	if f.wire != 2 {
		return nil, fmt.Errorf("profile: field %d: wire type %d", f.num, f.wire)
	}
	var out []uint64
	for b := f.bytes; len(b) > 0; {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// decodeProfile decodes the sample, location, function and string-table
// fields of a profile.proto message.
func decodeProfile(raw []byte) (*profile, error) {
	fields, err := protoFields(raw)
	if err != nil {
		return nil, err
	}
	p := &profile{locFunc: map[uint64]uint64{}, funcName: map[uint64]int64{}}
	for _, f := range fields {
		switch f.num {
		case 2: // Sample
			sub, err := protoFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var s profSample
			for _, g := range sub {
				if g.num != 1 && g.num != 2 {
					continue
				}
				vals, err := repeatedInts(g)
				if err != nil {
					return nil, err
				}
				if g.num == 1 {
					s.locations = append(s.locations, vals...)
					continue
				}
				for _, v := range vals {
					s.values = append(s.values, int64(v))
				}
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			sub, err := protoFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, fn uint64
			haveLine := false
			for _, g := range sub {
				switch g.num {
				case 1:
					id = g.value
				case 4: // Line; the first is the innermost inlined function
					if haveLine {
						continue
					}
					line, err := protoFields(g.bytes)
					if err != nil {
						return nil, err
					}
					for _, l := range line {
						if l.num == 1 {
							fn, haveLine = l.value, true
						}
					}
				}
			}
			if haveLine {
				p.locFunc[id] = fn
			}
		case 5: // Function
			sub, err := protoFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, g := range sub {
				switch g.num {
				case 1:
					id = g.value
				case 2:
					name = int64(g.value)
				}
			}
			p.funcName[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(f.bytes))
		}
	}
	return p, nil
}
