package driver_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/diag"
	"repro/internal/driver"
	"repro/internal/lint"
	"repro/internal/parser"
	"repro/internal/sema"
)

// TestCompactedMemoHitMatchesEager runs vet and whole-program analysis on
// every example twice against one disk cache. The first run solves every
// loop, stores it, and leaves the memo entry compact; the second is served
// by memory hits on those compact entries and must render the same bytes.
// Materializing a compact entry is not a disk load: the disk hit and load
// time counters must not move.
func TestCompactedMemoHitMatchesEager(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "*.loop"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no examples: %v", err)
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := parser.Parse(string(src))
			if err != nil {
				t.Fatal(err)
			}
			norm, err := sema.Normalize(prog)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			vet := func() []byte {
				res := lint.Vet(path, string(src), &lint.Options{CacheDir: dir, Parallelism: 1})
				var buf bytes.Buffer
				_ = diag.WriteText(&buf, path, res.Findings) // a bytes.Buffer write cannot fail
				return buf.Bytes()
			}
			program := func() (string, driver.Metrics) {
				pa, err := driver.Analyze(norm, &driver.Options{NestVectors: true, CacheDir: dir, Parallelism: 1})
				if err != nil {
					t.Fatal(err)
				}
				return pa.Report(), *pa.Metrics
			}

			driver.ResetCache()
			eagerVet := vet()
			eagerProgram, _ := program()
			if compact, _ := driver.MemoForms(); compact == 0 {
				t.Fatal("no memo entry was compacted after its disk store")
			}
			before := driver.DiskCacheStats()
			hitVet := vet()
			hitProgram, m := program()
			after := driver.DiskCacheStats()
			if m.CacheMisses != 0 || m.CacheHits == 0 {
				t.Errorf("second analysis: %d memo hits, %d misses; want hits only", m.CacheHits, m.CacheMisses)
			}

			if !bytes.Equal(hitVet, eagerVet) {
				t.Errorf("vet over compact memo hits differs:\n-- eager --\n%s-- hit --\n%s", eagerVet, hitVet)
			}
			if hitProgram != eagerProgram {
				t.Errorf("-program over compact memo hits differs:\n-- eager --\n%s-- hit --\n%s", eagerProgram, hitProgram)
			}
			if after.Hits != before.Hits || after.Misses != before.Misses || after.LoadNS != before.LoadNS {
				t.Errorf("memory hits moved the disk counters: hits %d→%d, misses %d→%d, load ns %d→%d",
					before.Hits, after.Hits, before.Misses, after.Misses, before.LoadNS, after.LoadNS)
			}
		})
	}
}
