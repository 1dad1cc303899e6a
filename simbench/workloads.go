package main

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// spec is one benchmark workload: a stack, and either a closed-loop
// workload personality or a generated replay trace. README.md gives
// the reason for each choice.
type spec struct {
	name  string
	stack core.StackConfig
	// shards > 1 runs the workload on that many replica stacks in
	// parallel event-loop shards.
	shards int
	// load is the closed-loop personality; nil for a replay.
	load *workload.Workload
	// duration is the virtual issue horizon of a closed-loop run.
	duration sim.Time
	// cold drops the page cache after set-up.
	cold bool
	// replay, when non-nil, shapes the generated trace.
	replay *traceShape
}

// traceShape sizes the replay workload's generated trace.
type traceShape struct {
	records int
	streams int
	files   int     // paths per stream
	rate    float64 // offered records per virtual second
}

// smallStack is the paper's testbed scaled to 1/8 memory (64 MiB of
// RAM, ~51 MiB of page cache) on an 8 GiB disk, with no run-to-run
// jitter in the OS reserve.
func smallStack(dev string) core.StackConfig {
	s := core.StackConfig{
		FS: "ext2", Device: dev, DiskBytes: 8 << 30,
		RAMBytes: 64 << 20, OSReserveBytes: 13 << 20,
		CachePolicy: "lru",
	}
	if dev == "nvme" {
		s.NVMeChannels = 4
	}
	return s
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"fileserver", "drain100k", "replay"}

// lookup returns the named workload at full size, or at a tiny size
// for tests that must finish in seconds.
func lookup(name string, tiny bool) (*spec, error) {
	switch name {
	case "fileserver":
		files, dur := 2000, 60*sim.Second
		if tiny {
			files, dur = 160, 200*sim.Millisecond
		}
		return &spec{
			name:     name,
			stack:    smallStack("nvme"),
			load:     fileServer(files, 64<<10, 16),
			duration: dur,
		}, nil
	case "drain100k":
		readers := 25000
		if tiny {
			readers = 250
		}
		st := smallStack("hdd")
		st.Scheduler, st.QueueDepth = "ncq", 32
		return &spec{
			name:     name,
			stack:    st,
			shards:   2,
			load:     workload.MixedRegions(4, readers, 0, 256<<20, 2<<10),
			duration: sim.Second,
			cold:     true,
		}, nil
	case "replay":
		shape := &traceShape{records: 300000, streams: 8, files: 256, rate: 50000}
		if tiny {
			shape.records, shape.files = 3000, 32
		}
		return &spec{name: name, stack: smallStack("nvme"), replay: shape}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// fileServer is workload.FileServer(files, meanSize, threads) with the
// files dealt out into one set per thread, all in the one /share
// directory. Sharing one set lets a thread stat, read or write a file
// that another thread deletes while the first is blocked on I/O; the
// engine counts that as a failed operation, and a benchmark workload
// must not fail any. Each thread still runs FileServer's flow.
func fileServer(files int, meanSize int64, threads int) *workload.Workload {
	base := workload.FileServer(files/threads, meanSize, 1)
	w := &workload.Workload{Name: base.Name}
	for t := 0; t < threads; t++ {
		set := base.FileSets[0]
		set.Name = fmt.Sprintf("%s%02d", set.Name, t)
		th := base.Threads[0]
		th.Flowops = slices.Clone(th.Flowops)
		for i := range th.Flowops {
			th.Flowops[i].FileSet = set.Name
		}
		w.FileSets = append(w.FileSets, set)
		w.Threads = append(w.Threads, th)
	}
	return w
}

// traceOp is one entry of the replay op mix.
type traceOp struct {
	kind   workload.OpKind
	weight float64
}

// traceMix is the replay trace's operation mix: mostly stats and small
// reads, with enough writes, creates and deletes to keep the
// namespace, the allocator and write-back moving.
var traceMix = []traceOp{
	{workload.OpStat, 0.30},
	{workload.OpOpen, 0.05},
	{workload.OpReadRand, 0.30},
	{workload.OpWriteRand, 0.15},
	{workload.OpCreate, 0.10},
	{workload.OpDelete, 0.10},
}

// pathSet is a set of file indices with O(1) random pick and move.
type pathSet struct {
	items []int
	pos   map[int]int
}

func (s *pathSet) add(i int) {
	s.pos[i] = len(s.items)
	s.items = append(s.items, i)
}

func (s *pathSet) remove(i int) {
	p := s.pos[i]
	last := s.items[len(s.items)-1]
	s.items[p] = last
	s.pos[last] = p
	s.items = s.items[:len(s.items)-1]
	delete(s.pos, i)
}

// genTrace writes the replay workload's FSBT v2 trace for seed. Each
// stream owns a directory of its own and tracks which of its files
// exist, so that every record replays without error: stats, opens,
// reads, writes and deletes name existing files, creates name absent
// ones. Every file exists at the start, so replay set-up pre-creates
// every file the trace names. Arrivals are Poisson at shape.rate,
// each record on a uniformly drawn stream.
func genTrace(seed uint64, shape *traceShape) ([]byte, error) {
	rng := sim.NewRNG(seed)
	type streamState struct {
		live, dead pathSet
		size       []int64
	}
	streams := make([]*streamState, shape.streams)
	for s := range streams {
		st := &streamState{
			live: pathSet{pos: map[int]int{}},
			dead: pathSet{pos: map[int]int{}},
			size: make([]int64, shape.files),
		}
		for i := 0; i < shape.files; i++ {
			st.live.add(i)
			st.size[i] = (1 + rng.Int63n(8)) << 12
		}
		streams[s] = st
	}
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	var at float64
	for n := 0; n < shape.records; n++ {
		at += rng.ExpFloat64() / shape.rate * float64(sim.Second)
		s := rng.Intn(shape.streams)
		st := streams[s]
		kind := pickKind(rng.Float64())
		if kind == workload.OpCreate && len(st.dead.items) == 0 {
			kind = workload.OpDelete
		}
		if kind != workload.OpCreate && len(st.live.items) == 0 {
			kind = workload.OpCreate
		}
		var f int
		if kind == workload.OpCreate {
			f = st.dead.items[rng.Intn(len(st.dead.items))]
		} else {
			f = st.live.items[rng.Intn(len(st.live.items))]
		}
		rec := trace.Record{
			At:     sim.Time(at),
			Kind:   kind,
			Path:   fmt.Sprintf("/s%d/f%04d", s, f),
			Owner:  s,
			Stream: s,
		}
		switch kind {
		case workload.OpReadRand:
			pages := st.size[f] >> 12
			rec.Offset = rng.Int63n(pages) << 12
			rec.Size = (1 + rng.Int63n(4)) << 12
		case workload.OpWriteRand:
			rec.Offset = rng.Int63n(8) << 12
			rec.Size = (1 + rng.Int63n(2)) << 12
			if end := rec.Offset + rec.Size; end > st.size[f] {
				st.size[f] = end
			}
		case workload.OpCreate:
			st.dead.remove(f)
			st.live.add(f)
			st.size[f] = 1 << 12
		case workload.OpDelete:
			st.live.remove(f)
			st.dead.add(f)
		}
		if err := w.Write(rec); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// pickKind maps a uniform draw onto traceMix.
func pickKind(u float64) workload.OpKind {
	for _, op := range traceMix {
		if u < op.weight {
			return op.kind
		}
		u -= op.weight
	}
	return traceMix[len(traceMix)-1].kind
}

// bytesSource replays an encoded trace held in memory, so that every
// pass decodes the FSBT v2 bytes afresh, as a file replay would.
type bytesSource []byte

func (b bytesSource) Open() (trace.Iterator, error) {
	r, err := trace.OpenReader(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	return readerIter{r}, nil
}

// readerIter adapts a trace.Reader, which holds nothing to release,
// to trace.Iterator.
type readerIter struct{ *trace.Reader }

func (readerIter) Close() error { return nil }
