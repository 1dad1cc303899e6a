// Package warehouse is the results archive the paper's methodology
// implies but benchmarks never ship: every experiment's full Result —
// per-run samples and complete latency histograms, not just summary
// rows — persisted append-only, keyed by (config fingerprint, seed,
// git revision, timestamp). Archived runs are what turn "the numbers
// looked fine to the reviewer" into evidence: a stored baseline can
// be queried, its distributions pulled, and a candidate run-set
// compared against it statistically (see the gate subpackage).
//
// The on-disk format is JSON lines: one self-contained Record per
// line, in append order, across any number of *.jsonl files in the
// store directory. Appends never rewrite history; a truncated final
// line (a crashed writer) is detected and rejected at load so a
// corrupt archive cannot silently thin a baseline.
package warehouse

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// SchemaVersion identifies the Record wire format. Loaders reject
// newer schemas instead of guessing at fields.
const SchemaVersion = 1

// RunRecord is one run's archived measures.
type RunRecord struct {
	Seed       uint64  `json:"seed"`
	Ops        int64   `json:"ops"`
	Throughput float64 `json:"ops_per_sec"`
	HitRatio   float64 `json:"hit_ratio"`
	Errors     int64   `json:"errors"`
	// Hist is the run's full latency histogram — the distribution,
	// not a summary of it.
	Hist *metrics.Histogram `json:"hist"`
	// Load is the run's open-loop gauge (zero-valued when closed).
	Load metrics.LoadGauge `json:"load"`
}

// Record is one archived experiment Result: the append-only store's
// unit. Every field needed to interpret the numbers later rides
// along — the paper's complaint is precisely results published
// without the context to compare them.
type Record struct {
	Schema int `json:"schema"`
	// Fingerprint identifies the configuration: a hash of the stack,
	// the workload (canonical WDL), and the measurement protocol —
	// everything but the seed. Two records with equal fingerprints
	// measured the same thing and may be pooled.
	Fingerprint string    `json:"config"`
	Name        string    `json:"name"`
	Seed        uint64    `json:"seed"`
	GitRev      string    `json:"git_rev,omitempty"`
	Time        time.Time `json:"time"`

	// Query dimensions, denormalized from the config.
	Personality string `json:"personality"`
	FS          string `json:"fs"`
	Device      string `json:"device"`
	Scheduler   string `json:"scheduler"`
	Arrival     string `json:"arrival"`
	QueueDepth  int    `json:"queue_depth"`
	Threads     int    `json:"threads"`
	// TraceDigest identifies the replayed trace's content for traced
	// runs ("" for synthetic workloads); it is part of the
	// Fingerprint, denormalized here so selectors can query by trace.
	TraceDigest string `json:"trace_digest,omitempty"`
	// ReplayMode is the replay timing discipline for traced runs
	// (timed / afap / scaled; "" for synthetic workloads).
	ReplayMode string `json:"replay_mode,omitempty"`
	// ReplayScale is the scaled mode's compression factor (0 when not
	// scaled).
	ReplayScale float64 `json:"replay_scale,omitempty"`

	// Protocol.
	Runs       int   `json:"runs"`
	DurationNs int64 `json:"duration_ns"`
	WindowNs   int64 `json:"window_ns"`
	ColdCache  bool  `json:"cold_cache,omitempty"`
	// Shards is the kernel shard count the runs executed under — an
	// execution knob like Parallelism, deliberately excluded from the
	// Fingerprint, but recorded so pooled records can be audited:
	// shards>1 runs model N replica stacks, not one shared device
	// (DESIGN.md §9). Absent (0) means the single-loop kernel.
	Shards int `json:"shards,omitempty"`
	// ShardMode is the shard topology ("" = replica). Unlike the
	// replica shard count, a non-empty mode changes what is measured
	// (one contended device, an N-way cache split), so it — and the
	// shard count with it — enters the Fingerprint; see Fingerprint.
	ShardMode string `json:"shard_mode,omitempty"`

	// Measures.
	Throughput stats.Summary      `json:"throughput"`
	Hist       *metrics.Histogram `json:"hist"`
	Jain       float64            `json:"jain"`
	Load       metrics.LoadGauge  `json:"load"`
	Flags      core.Flags         `json:"flags"`
	PerRun     []RunRecord        `json:"per_run"`
}

// Fingerprint hashes everything that defines what an experiment
// measures — stack, workload (canonical WDL text), duration, window,
// kinds, cold-start — and nothing that only defines which draw it
// took (seed, run count, parallelism, shard count, hooks). The hex
// prefix is long enough (96 bits) that a collision within one archive
// is not a realistic concern.
//
// The stack line serializes through StackConfig.String (%+v resolves
// the Stringer), which is the frozen surface every committed baseline
// fingerprint was recorded against: TestFingerprintFrozenSerialization
// pins the bytes. In replica mode (ShardMode == "") Shards is zeroed
// first — the replica shard count is an execution knob like
// Parallelism, not part of what is measured, so records at any shard
// count pool under one fingerprint; it is archived as Record metadata
// instead (DESIGN.md §9). When ShardMode is set, the mode AND the
// shard count stay in the hash: shared-device runs split the cache
// N ways and funnel every shard into one contended queue, so the
// shard count changes the measured system, and pooling across counts
// would be exactly the apples-to-oranges comparison the paper warns
// about. Existing configs all have ShardMode == "", so their
// fingerprints are unchanged.
func Fingerprint(e *core.Experiment) string {
	h := sha256.New()
	// The VFS override is a pointer: print the pointee, never the
	// address, or the fingerprint would differ between processes.
	stack := e.Stack
	stack.VFS = nil
	if stack.ShardMode == "" {
		stack.Shards = 0
	}
	fmt.Fprintf(h, "stack|%+v\n", stack)
	if e.Stack.VFS != nil {
		fmt.Fprintf(h, "vfs|%+v\n", *e.Stack.VFS)
	}
	if e.Workload != nil {
		fmt.Fprintf(h, "workload|%s\n", workload.FormatWDL(e.Workload))
	}
	if e.Trace != nil {
		// A traced run measures (trace content, discipline, scale,
		// tenant count): all four change what is measured, so all four
		// enter the hash. The digest is order-insensitive trace
		// content — the same records in any order fingerprint
		// identically. Workload-only experiments are unaffected: this
		// line is absent for them, so every committed baseline
		// fingerprint stands.
		fmt.Fprintf(h, "trace|digest=%s mode=%s scale=%g tenants=%d\n",
			e.Trace.Digest(), e.Trace.Mode, e.Trace.Scale, len(e.Trace.Tenants))
	}
	fmt.Fprintf(h, "proto|dur=%d win=%d cold=%v kinds=%v\n",
		int64(e.Duration), int64(e.MeasureWindow), e.ColdCache, e.Kinds)
	return hex.EncodeToString(h.Sum(nil))[:24]
}

// arrivalName reports the workload's arrival discipline for the
// query dimension: "closed", or the first open-loop class's kind.
func arrivalName(w *workload.Workload) string {
	if w == nil {
		return ""
	}
	for _, th := range w.Threads {
		if th.Arrival.Open() {
			return th.Arrival.Kind.String()
		}
	}
	return workload.ArrivalClosed.String()
}

// FromResult converts a completed Result into its archive Record.
func FromResult(res *core.Result, gitRev string, now time.Time) Record {
	e := res.Experiment
	rec := Record{
		Schema:      SchemaVersion,
		Fingerprint: Fingerprint(e),
		Name:        e.Name,
		Seed:        e.Seed,
		GitRev:      gitRev,
		Time:        now.UTC(),
		FS:          orDefault(e.Stack.FS, "ext2"),
		Device:      orDefault(e.Stack.Device, "hdd"),
		Scheduler:   orDefault(e.Stack.Scheduler, "elevator"),
		QueueDepth:  e.Stack.QueueDepth,
		Runs:        e.Runs,
		DurationNs:  int64(e.Duration),
		WindowNs:    int64(e.MeasureWindow),
		ColdCache:   e.ColdCache,
		Shards:      e.Stack.Shards,
		ShardMode:   e.Stack.ShardMode,
		Throughput:  res.Throughput,
		Hist:        res.Hist,
		Jain:        res.Jain,
		Load:        res.Load,
		Flags:       res.Flags,
	}
	if e.Workload != nil {
		rec.Personality = e.Workload.Name
		rec.Arrival = arrivalName(e.Workload)
		rec.Threads = e.Workload.TotalThreads()
	}
	if e.Trace != nil {
		rec.Personality = orDefault(e.Trace.Name, "trace")
		rec.Arrival = "replay-" + e.Trace.Mode.String()
		rec.Threads = e.Trace.Workers()
		rec.TraceDigest = e.Trace.Digest()
		rec.ReplayMode = e.Trace.Mode.String()
		if e.Trace.Mode == trace.Scaled {
			rec.ReplayScale = e.Trace.Scale
		}
	}
	for _, m := range res.PerRun {
		rec.PerRun = append(rec.PerRun, RunRecord{
			Seed:       m.Seed,
			Ops:        m.Ops,
			Throughput: m.Throughput,
			HitRatio:   m.HitRatio,
			Errors:     m.Errors,
			Hist:       m.Hist,
			Load:       m.Load,
		})
	}
	return rec
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// Store is an append-only archive rooted at a directory. Appends go
// to results.jsonl; Load reads every *.jsonl in the directory, so a
// committed baseline file can sit next to freshly recorded runs.
type Store struct {
	dir string
	// GitRev is stamped on every appended record ("" = unknown).
	GitRev string
	// Now supplies record timestamps (nil = time.Now).
	Now func() time.Time

	mu sync.Mutex
	f  *os.File
}

// appendFile is the file new records land in.
const appendFile = "results.jsonl"

// Open creates (if needed) and opens a store directory.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("warehouse: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Close releases the append handle (appends reopen it on demand).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

// Append archives one record. Each record is one line; the write is
// a single buffered Write call so concurrent appenders (behind the
// mutex) never interleave partial lines.
func (s *Store) Append(rec Record) error {
	if rec.Schema == 0 {
		rec.Schema = SchemaVersion
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("warehouse: encoding record: %w", err)
	}
	line = append(line, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		f, err := os.OpenFile(filepath.Join(s.dir, appendFile),
			os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("warehouse: %w", err)
		}
		s.f = f
	}
	if _, err := s.f.Write(line); err != nil {
		return fmt.Errorf("warehouse: appending record: %w", err)
	}
	return nil
}

// RecordResult implements core.Recorder: attach a *Store to an
// Experiment (or a Sweep template) and every completed Result is
// archived with the store's git revision and clock.
func (s *Store) RecordResult(res *core.Result) error {
	now := time.Now
	if s.Now != nil {
		now = s.Now
	}
	return s.Append(FromResult(res, s.GitRev, now()))
}

// Load reads every *.jsonl file in the store directory (sorted by
// name, then line order) into memory.
func (s *Store) Load() (Set, error) {
	// Flush nothing — appends are unbuffered — but take the lock so a
	// concurrent append's line is either fully present or absent.
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("warehouse: %w", err)
	}
	var names []string
	for _, ent := range entries {
		if !ent.IsDir() && strings.HasSuffix(ent.Name(), ".jsonl") {
			names = append(names, ent.Name())
		}
	}
	sort.Strings(names)
	var set Set
	for _, name := range names {
		recs, err := LoadFile(filepath.Join(s.dir, name))
		if err != nil {
			return nil, err
		}
		set = append(set, recs...)
	}
	return set, nil
}

// LoadFile reads one JSON-lines archive file.
func LoadFile(path string) (Set, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("warehouse: %w", err)
	}
	defer f.Close()
	var set Set
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20) // histogram-laden lines exceed the default token size
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("warehouse: %s line %d: %w", path, lineno, err)
		}
		if rec.Schema > SchemaVersion {
			return nil, fmt.Errorf("warehouse: %s line %d: schema %d newer than supported %d",
				path, lineno, rec.Schema, SchemaVersion)
		}
		set = append(set, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("warehouse: %s: %w", path, err)
	}
	return set, nil
}

// GitRev reports the working tree's abbreviated revision, or "" when
// git (or a repository) is unavailable — archives degrade to
// rev-less records rather than failing.
func GitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
