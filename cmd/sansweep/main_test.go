package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"activesan/internal/metrics"
	"activesan/internal/stats"
)

// A list skips empty elements and surrounding spaces, and rejects a
// non-numeric, zero or negative element by name.
func TestParseInts(t *testing.T) {
	got, err := parseInts(" 2, ,4,,8 ,")
	if err != nil || !reflect.DeepEqual(got, []int{2, 4, 8}) {
		t.Fatalf("parseInts = %v, %v; want [2 4 8]", got, err)
	}
	if got, err := parseInts(""); err != nil || len(got) != 0 {
		t.Fatalf("parseInts(\"\") = %v, %v; want no points", got, err)
	}
	for _, bad := range []string{"x", "0", "-4", "2.5"} {
		_, err := parseInts("1," + bad + ",3")
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", bad)) {
			t.Errorf("parseInts with %q: err = %v, want one naming the element", bad, err)
		}
	}
}

// Concurrent records keep one entry per label; a run without a snapshot,
// and any run given to a nil recorder, is skipped.
func TestRecorderKeepsOneEntryPerLabel(t *testing.T) {
	rec := newRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				snap := &metrics.Snapshot{Values: map[string]float64{"point": float64(i)}}
				rec.record(fmt.Sprintf("p=%d", i), stats.Run{Metrics: snap})
				rec.record(fmt.Sprintf("bare/%d/%d", g, i), stats.Run{})
			}
		}(g)
	}
	wg.Wait()
	if len(rec.sweeps) != 50 {
		t.Fatalf("recorded %d labels, want 50", len(rec.sweeps))
	}
	for label, snap := range rec.sweeps {
		if !strings.HasPrefix(label, "p=") || snap == nil {
			t.Errorf("entry %q = %v: want only the labels with snapshots", label, snap)
		}
	}

	var none *recorder
	none.record("p=1", stats.Run{Metrics: &metrics.Snapshot{}})
}

// A recorder with no points, the reduce sweep's, writes valid JSON with
// the paper and an empty sweeps object.
func TestEmptyRecorderWritesValidJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out", "metrics.json")
	newRecorder().write(path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("written file is not JSON: %v\n%s", err, data)
	}
	if len(got) != 2 || got["paper"] == nil || string(got["sweeps"]) != "{}" {
		t.Fatalf("written file = %s, want the paper and an empty sweeps object", data)
	}
}
