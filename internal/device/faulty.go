package device

import "repro/internal/sim"

// FaultPolicy configures injected failures for a Faulty wrapper.
type FaultPolicy struct {
	// ReadErrProb and WriteErrProb are per-request probabilities of
	// returning ErrIO.
	ReadErrProb  float64
	WriteErrProb float64
	// BadRanges lists sector ranges that always fail, modeling media
	// defects.
	BadRanges []SectorRange
	// FailAfter, when > 0, fails every request once that many
	// requests have succeeded — a whole-device death.
	FailAfter int64
}

// SectorRange is a half-open [First, First+Count) sector interval.
type SectorRange struct {
	First, Count int64
}

func (r SectorRange) overlaps(lba, sectors int64) bool {
	return lba < r.First+r.Count && r.First < lba+sectors
}

// Faulty wraps a Device and injects failures per a FaultPolicy. Tests
// and failure-injection benchmarks use it to exercise error paths in
// the file systems and cache above.
type Faulty struct {
	Inner  Device
	Policy FaultPolicy
	rng    *sim.RNG
	ok     int64
	stats  Stats
}

// NewFaulty wraps inner with the given policy.
//
//fslint:ignore deadapi the fault-injecting fake behind the device, vfs and workload error-path tests
func NewFaulty(inner Device, policy FaultPolicy, rng *sim.RNG) *Faulty {
	return &Faulty{Inner: inner, Policy: policy, rng: rng}
}

// Name implements Device.
func (f *Faulty) Name() string { return f.Inner.Name() + "+faults" }

// Sectors implements Device.
func (f *Faulty) Sectors() int64 { return f.Inner.Sectors() }

// ServiceWidth implements MultiQueue by forwarding the inner device's
// width, so fault injection does not silently serialize a
// multi-channel device.
func (f *Faulty) ServiceWidth() int {
	if mq, ok := f.Inner.(MultiQueue); ok {
		return mq.ServiceWidth()
	}
	return 1
}

// MinLatency implements Device by forwarding the inner bound.
// Injected faults complete instantly at the submission time, but
// MinLatency only promises a floor for *successful* requests — error
// completions take the clamped mailbox path in sharded runs.
func (f *Faulty) MinLatency() sim.Time { return f.Inner.MinLatency() }

// Stats implements Device. Error counts accumulate on the wrapper;
// successful traffic counts on the inner device.
func (f *Faulty) Stats() Stats {
	s := f.Inner.Stats()
	s.Errors += f.stats.Errors
	return s
}

// ResetStats implements Device.
func (f *Faulty) ResetStats() { f.stats = Stats{}; f.Inner.ResetStats() }

// Submit implements Device.
func (f *Faulty) Submit(at sim.Time, req Request) (sim.Time, error) {
	if f.Policy.FailAfter > 0 && f.ok >= f.Policy.FailAfter {
		f.stats.Errors++
		return at, ErrIO
	}
	for _, r := range f.Policy.BadRanges {
		if r.overlaps(req.LBA, req.Sectors) {
			f.stats.Errors++
			return at, ErrIO
		}
	}
	p := f.Policy.ReadErrProb
	if req.Op == Write {
		p = f.Policy.WriteErrProb
	}
	if p > 0 && f.rng.Bool(p) {
		f.stats.Errors++
		return at, ErrIO
	}
	done, err := f.Inner.Submit(at, req)
	if err == nil {
		f.ok++
	}
	return done, err
}

var _ Device = (*Faulty)(nil)
