package warehouse

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzWarehouseLoad throws arbitrary bytes at the JSON-lines archive
// loader, the warehouse's external input format. The invariants under
// fuzz: LoadFile never panics and never allocates proportional to a
// size the input merely claims; it either returns an error or returns
// records that re-marshal, and whose re-marshalled lines load back to
// the same bytes.
func FuzzWarehouseLoad(f *testing.F) {
	baseline, err := os.ReadFile(filepath.Join("..", "..", "ci", "baseline.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	line, _, _ := bytes.Cut(baseline, []byte("\n"))
	f.Add(line)
	// A crashed writer's torn trailing line after a good one.
	f.Add(append(append(append([]byte{}, line...), '\n'), line[:len(line)/2]...))
	// A histogram bucket index past the last bucket.
	f.Add([]byte(`{"schema":1,"config":"x","hist":{"count":1,"sum":5,"min":5,"max":5,"buckets":[[99,1]]}}`))
	// A schema newer than this loader understands.
	f.Add([]byte(`{"schema":2,"config":"x"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		set, err := LoadFile(path)
		if err != nil {
			return
		}
		var out bytes.Buffer
		for i, rec := range set {
			b, err := json.Marshal(rec)
			if err != nil {
				t.Fatalf("record %d loaded but does not re-marshal: %v", i, err)
			}
			out.Write(b)
			out.WriteByte('\n')
		}
		again := filepath.Join(t.TempDir(), "again.jsonl")
		if err := os.WriteFile(again, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		set2, err := LoadFile(again)
		if err != nil {
			t.Fatalf("re-marshalled records do not load: %v", err)
		}
		if len(set2) != len(set) {
			t.Fatalf("reload gave %d records, want %d", len(set2), len(set))
		}
		var out2 strings.Builder
		for i, rec := range set2 {
			b, err := json.Marshal(rec)
			if err != nil {
				t.Fatalf("reloaded record %d does not re-marshal: %v", i, err)
			}
			out2.Write(b)
			out2.WriteByte('\n')
		}
		if out2.String() != out.String() {
			t.Fatalf("round trip changed the records:\n%s\nvs\n%s", out.String(), out2.String())
		}
	})
}
