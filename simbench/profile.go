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

// This file folds a runtime/pprof CPU profile by package into the
// cpu.* layer shares. The standard library writes profiles but has no
// reader, so a small decoder of the profile.proto wire format reads
// the few fields folding needs: sample types, samples, locations,
// functions and the string table.

// profile is the decoded subset of a pprof profile.
type profile struct {
	// valueIndex is the sample value holding CPU nanoseconds.
	valueIndex int
	samples    []sample
	// locFuncs maps a location id to its function ids, innermost
	// (inlined) first.
	locFuncs map[uint64][]uint64
	funcName map[uint64]int64 // function id -> string index
	strings  []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

// Profile message field numbers (profile.proto).
const (
	fieldSampleType  = 1
	fieldSample      = 2
	fieldLocation    = 4
	fieldFunction    = 5
	fieldStringTable = 6

	fieldSampleLocation = 1
	fieldSampleValue    = 2
	fieldValueTypeType  = 1
	fieldLocationID     = 1
	fieldLocationLine   = 4
	fieldLineFunction   = 1
	fieldFunctionID     = 1
	fieldFunctionName   = 2
)

// field is one decoded protobuf field: a varint, or the bytes of a
// length-delimited value.
type field struct {
	num    int
	varint uint64
	bytes  []byte
	wire   int
}

// fields decodes a protobuf message into its fields. Fixed-width
// values, which profile.proto does not use in the fields read here,
// are skipped.
func fields(b []byte) ([]field, error) {
	var out []field
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad field key")
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.varint, n = binary.Uvarint(b)
			if n <= 0 {
				return nil, errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("profile: truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return nil, errors.New("profile: bad length")
			}
			f.bytes = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("profile: truncated fixed32")
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// varints returns a repeated integer field's values, packed or not.
func (f field) varints() ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.varint}, nil
	}
	var out []uint64
	for b := f.bytes; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad packed varint")
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// parseProfile decodes a gzipped pprof profile.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := fields(raw)
	if err != nil {
		return nil, err
	}
	p := &profile{valueIndex: -1, locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	var typeNames []int64
	for _, f := range top {
		if f.num == fieldStringTable {
			p.strings = append(p.strings, string(f.bytes))
			continue
		}
		if f.wire != 2 {
			continue
		}
		sub, err := fields(f.bytes)
		if err != nil {
			return nil, err
		}
		switch f.num {
		case fieldSampleType:
			for _, g := range sub {
				if g.num == fieldValueTypeType {
					typeNames = append(typeNames, int64(g.varint))
				}
			}
		case fieldSample:
			var s sample
			for _, g := range sub {
				vs, err := g.varints()
				if err != nil {
					return nil, err
				}
				switch g.num {
				case fieldSampleLocation:
					s.locs = append(s.locs, vs...)
				case fieldSampleValue:
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				}
			}
			p.samples = append(p.samples, s)
		case fieldLocation:
			var id uint64
			var funcs []uint64
			for _, g := range sub {
				switch g.num {
				case fieldLocationID:
					id = g.varint
				case fieldLocationLine:
					line, err := fields(g.bytes)
					if err != nil {
						return nil, err
					}
					for _, l := range line {
						if l.num == fieldLineFunction {
							funcs = append(funcs, l.varint)
						}
					}
				}
			}
			p.locFuncs[id] = funcs
		case fieldFunction:
			var id uint64
			var name int64
			for _, g := range sub {
				switch g.num {
				case fieldFunctionID:
					id = g.varint
				case fieldFunctionName:
					name = int64(g.varint)
				}
			}
			p.funcName[id] = name
		}
	}
	for i, s := range typeNames {
		if s >= 0 && int(s) < len(p.strings) && p.strings[s] == "cpu" {
			p.valueIndex = i
		}
	}
	if p.valueIndex < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	return p, nil
}

// stack returns a sample's function names, leaf first.
func (p *profile) stack(s sample) []string {
	var out []string
	for _, loc := range s.locs {
		for _, fn := range p.locFuncs[loc] {
			if i, ok := p.funcName[fn]; ok && i >= 0 && int(i) < len(p.strings) {
				out = append(out, p.strings[i])
			}
		}
	}
	return out
}

// foldProfile returns the CPU nanoseconds of a gzipped pprof CPU
// profile per layer (see layerOf).
func foldProfile(data []byte) (map[string]int64, error) {
	p, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		if p.valueIndex < len(s.values) {
			out[layerOf(p.stack(s))] += s.values[p.valueIndex]
		}
	}
	return out, nil
}

// cpuLayers are the layers cpu.* shares are reported for; every
// sample lands in exactly one of them.
var cpuLayers = []string{"sim", "vfs", "cache", "fs", "device", "trace", "workload",
	"gc", "runtime_sched", "other"}

// simLayers are the simulator packages under repro/internal/ that
// count as layers of their own.
var simLayers = map[string]bool{"sim": true, "vfs": true, "cache": true, "fs": true,
	"device": true, "trace": true, "workload": true}

// layerOf attributes one sampled stack (leaf first) to a layer:
//
//   - gc: the collector's own work, background or assisting;
//   - the simulator package nearest the leaf, so that map hashing,
//     allocation and channel operations count against the layer that
//     asked for them;
//   - runtime_sched: runtime-only stacks, the scheduler and idle
//     loops that goroutine handoffs drive;
//   - other: anything else, this benchmark's own code (the seam
//     wrappers) and the simulator's support packages included.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" ||
			fn == "runtime.bgscavenge" || fn == "runtime.markroot" {
			return "gc"
		}
	}
	runtimeOnly := true
	for _, fn := range stack {
		pkg := funcPackage(fn)
		if pkg == "main" {
			return "other"
		}
		if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
			seg, _, _ := strings.Cut(rest, "/")
			if simLayers[seg] {
				return seg
			}
			return "other"
		}
		if pkg != "runtime" && !strings.HasPrefix(pkg, "runtime/internal/") &&
			!strings.HasPrefix(pkg, "internal/runtime/") {
			runtimeOnly = false
		}
	}
	if runtimeOnly {
		return "runtime_sched"
	}
	return "other"
}

// funcPackage returns the import path of a symbol name such as
// "repro/internal/fs/ext2sim.(*FS).Map".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}
