package trace

import (
	"bytes"
	"testing"

	"repro/internal/workload"
)

// FuzzTraceReadBinary throws arbitrary bytes at the trace decoder.
// The invariants under fuzz: never panic, never allocate proportional
// to a length the input merely claims, and on a successful parse the
// records survive a re-encode/re-decode round trip. Corrupt varints,
// negative time deltas, and truncated path tables must all surface as
// errors, not as silently wrong traces.
func FuzzTraceReadBinary(f *testing.F) {
	// Seed corpus: a well-formed stream, targeted corruptions of it,
	// and a stream in the retired v1 format, which must be rejected.
	v2 := func() []byte {
		var buf bytes.Buffer
		t := &Trace{Records: []Record{
			{At: 0, Kind: workload.OpCreate, Path: "/t/a", Owner: 0, Stream: 0},
			{At: 1000, Kind: workload.OpWriteSeq, Path: "/t/a", Size: 8192, Owner: 1, Stream: 1},
			{At: 5000, Kind: workload.OpReadRand, Path: "/t/b", Offset: 4096, Size: 2048, Owner: 0, Stream: 0},
		}}
		t.WriteBinary(&buf)
		return buf.Bytes()
	}()
	f.Add(v2)
	f.Add([]byte("FSBT\x01\x01\x02/a\x01\x00\x00\x00\x00\x00"))
	f.Add(v2[:len(v2)/2])
	f.Add(v2[:len(v2)-2]) // end frame missing
	f.Add([]byte("FSBT"))
	f.Add(append(append([]byte{}, magicV2[:]...), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01))
	// A time delta of 2^63 that would wrap the absolute time negative.
	f.Add(append(append([]byte{}, magicV2[:]...), framePath, 1, '/', frameRecord,
		0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0, 0, 0, 0, 0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := readAll(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A parse that succeeded must describe sane records: decoder
		// guards promise non-negative absolute times and bounded paths.
		for i, rec := range tr.Records {
			if rec.At < 0 {
				t.Fatalf("record %d has negative time %d", i, int64(rec.At))
			}
			if len(rec.Path) > maxPathLen {
				t.Fatalf("record %d path length %d exceeds cap", i, len(rec.Path))
			}
		}
		// Round trip: re-encoding sorted records and re-reading them
		// must preserve the multiset (spot-check via count + digest).
		s1, err := ScanSource(MemorySource(tr))
		if err != nil {
			t.Fatalf("scan of parsed trace failed: %v", err)
		}
		var buf bytes.Buffer
		if err := tr.WriteBinary(&buf); err != nil {
			t.Fatalf("re-encode of parsed trace failed: %v", err)
		}
		tr2, err := readAll(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		s2, err := ScanSource(MemorySource(tr2))
		if err != nil {
			t.Fatalf("re-scan failed: %v", err)
		}
		if s1.Records != s2.Records || s1.Digest != s2.Digest {
			t.Fatalf("round trip changed content: %d/%s -> %d/%s",
				s1.Records, s1.Digest, s2.Records, s2.Digest)
		}
	})
}
