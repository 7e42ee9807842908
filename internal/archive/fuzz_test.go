package archive

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/amr"
	"repro/internal/codec"
	"repro/internal/sim"
)

// FuzzOpen throws mutated archive bytes — seeded with fresh,
// appended/multi-generation, campaign and torn-tail archives from the
// writer, plus every older-format fixture under testdata with torn and
// footer-flipped variants, so every trailer version, the recovery scan,
// the footer digest and the hostile-link checks are all in the corpus —
// at the full open path: trailer parse, recovery scan, footer decode,
// frame-bounds validation. Open must never panic, and any Reader
// it does return must hold an index whose every batch decodes or fails
// cleanly.
func FuzzOpen(f *testing.F) {
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.taca")
	mkSnap := func(name string, seed int64) *amr.Dataset {
		ds, err := sim.Generate(sim.Spec{
			Name: name, FinestN: 16, Levels: 2, UnitBlock: 4,
			Seed: seed, LeafFractions: []float64{0.3, 0.7},
		}, sim.BaryonDensity)
		if err != nil {
			f.Fatal(err)
		}
		return ds
	}

	// Seed 0: a single-generation archive.
	writeSeedArchive(f, path, mkSnap("s0", 1))
	gen0, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(gen0)

	// Seeds 1-3: two appended generations, a torn tail mid-append, and a
	// torn trailer.
	for i := 1; i <= 2; i++ {
		w, fl, err := OpenAppendFile(path)
		if err != nil {
			f.Fatal(err)
		}
		if err := w.AddDataset(mkSnap("s"+string(rune('0'+i)), int64(i+1)), codec.Config{ErrorBound: 1e9}); err != nil {
			f.Fatal(err)
		}
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
		fl.Close()
	}
	multi, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(multi)
	f.Add(multi[:len(gen0)+(len(multi)-len(gen0))/2])        // torn second append
	f.Add(multi[:len(multi)-5])                              // torn trailer
	f.Add([]byte("TACA\x01 not really an archive TACAEND1")) // seed 4

	// Seeds 5-7: a campaign archive (delta members), a torn delta tail,
	// and a bit-flip inside its footer region — the mutation engine
	// starts from here to attack the dependency links.
	dpath := filepath.Join(dir, "delta.taca")
	dfl, err := os.Create(dpath)
	if err != nil {
		f.Fatal(err)
	}
	dw, err := NewWriter(dfl)
	if err != nil {
		f.Fatal(err)
	}
	dw.BatchBlocks = 8
	dw.Keyframe = 3
	prev := mkSnap("d0", 9)
	for i := 0; i < 3; i++ {
		if err := dw.AddDataset(prev, codec.Config{ErrorBound: 1e9}); err != nil {
			f.Fatal(err)
		}
		prev = driftDataset(prev, "d"+string(rune('1'+i)), 1e9, int64(i))
	}
	if err := dw.Close(); err != nil {
		f.Fatal(err)
	}
	dfl.Close()
	delta, err := os.ReadFile(dpath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(delta)
	f.Add(delta[:len(delta)-trailer5Len-7]) // torn delta tail: footer cut mid-record
	flip := append([]byte(nil), delta...)
	flip[len(flip)-trailer5Len-10] ^= 0x08 // corrupt a footer byte near the links
	f.Add(flip)

	// Seeds 8-9: a footer flip in the multi-generation archive that the
	// footer digest must reject, so Open falls back a generation, and a
	// flip inside the trailer's digest word itself.
	vflip := append([]byte(nil), multi...)
	vflip[len(vflip)-trailer5Len-9] ^= 0x10
	f.Add(vflip)
	cflip := append([]byte(nil), multi...)
	cflip[len(cflip)-10] ^= 0x10
	f.Add(cflip)

	// Then every fixture the older writers produced (v1 under TACAEND1
	// and TACAEND2, v2 under TACAEND3, v3 under TACAEND4, and a v4 one):
	// each as written, cut mid-footer, and with a footer byte flipped.
	fixtures, err := filepath.Glob("testdata/*.taca")
	if err != nil || len(fixtures) == 0 {
		f.Fatalf("no archive fixtures: %v", err)
	}
	for _, fx := range fixtures {
		blob, err := os.ReadFile(fx)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		f.Add(blob[:len(blob)-40])
		ff := append([]byte(nil), blob...)
		ff[len(ff)-40] ^= 0x08
		f.Add(ff)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 1<<20 {
			return
		}
		r, err := Open(bytes.NewReader(b), int64(len(b)))
		if err != nil {
			return
		}
		if r.EndOffset() > int64(len(b)) {
			t.Fatalf("recovered end %d past input size %d", r.EndOffset(), len(b))
		}
		for mi := range r.Members() {
			m := &r.Members()[mi]
			if m.StoredCells() > 1<<22 {
				continue // cap per-member work; geometry was already validated
			}
			for li := range m.Levels {
				for bi := range m.Levels[li].Batches {
					_, _ = r.DecodeBatch(mi, li, bi) // must not panic
				}
			}
		}
	})
}

func writeSeedArchive(f *testing.F, path string, snaps ...*amr.Dataset) {
	fl, err := os.Create(path)
	if err != nil {
		f.Fatal(err)
	}
	defer fl.Close()
	w, err := NewWriter(fl)
	if err != nil {
		f.Fatal(err)
	}
	w.BatchBlocks = 8
	for _, ds := range snaps {
		if err := w.AddDataset(ds, codec.Config{ErrorBound: 1e9}); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
}
