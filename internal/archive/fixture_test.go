package archive

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/amr"
	"repro/internal/codec"
	"repro/internal/sz"
)

// TestV1PayloadArchiveFixture reads a small campaign archive whose
// frames are version-1 sz payloads (V1 codebook, both sections
// DEFLATEd), written before the compact codebook, with one intra and one
// delta member. Every member must extract to the serialized datasets
// recorded beside it, byte for byte.
func TestV1PayloadArchiveFixture(t *testing.T) {
	blob, err := os.ReadFile("testdata/v1_campaign.taca")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/v1_campaign.amr")
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Members()) != 2 || !r.Members()[1].Levels[0].IsDelta(0) {
		t.Fatalf("fixture has %d members; want an intra member and a delta member", len(r.Members()))
	}
	if !bytes.Equal(serializeAll(t, r), want) {
		t.Fatal("version 1 archive extracts differently from its recorded output")
	}
	if issues := r.Scrub(); len(issues) != 0 {
		t.Fatalf("scrub of the fixture: %v", issues)
	}
}

// legacyFixtures are archives the older writers produced, one per
// trailer version, each beside the .amr stream its members extract to.
// They were written before the writer lost its older formats, and the
// current tree can no longer produce them: never regenerate them.
var legacyFixtures = []struct {
	taca, amr string
	magic     [8]byte
}{
	{"legacy_gen0.taca", "legacy_gen0.amr", trailerMagic},  // v1, generation 0
	{"legacy_gen1.taca", "legacy_gen1.amr", trailer2Magic}, // v1, one append
	{"v1_campaign.taca", "v1_campaign.amr", trailer3Magic}, // v2: delta links
	{"legacy_sums.taca", "legacy_sums.amr", trailer4Magic}, // v3: frame digests, delta links
	{"legacy_v4.taca", "legacy_gen0.amr", trailer5Magic},   // v4: footer digest
}

// serializeAll serializes every member of r, in index order.
func serializeAll(t *testing.T, r *Reader) []byte {
	t.Helper()
	var out bytes.Buffer
	for mi := range r.Members() {
		ds, err := r.Extract(mi)
		if err != nil {
			t.Fatalf("member %d: %v", mi, err)
		}
		if err := ds.Write(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

// TestLegacyFixtures opens every older-format fixture, extracts it byte
// for byte, scrubs it clean, and appends a member to a copy: the append
// commits the whole archive at v4, and every old member then verifies by
// digest and still extracts byte-identically.
func TestLegacyFixtures(t *testing.T) {
	input, err := os.ReadFile("testdata/legacy_input.amr")
	if err != nil {
		t.Fatal(err)
	}
	extra, err := amr.ReadFrom(bytes.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	extra.Name = "appended"
	for _, fx := range legacyFixtures {
		t.Run(fx.taca, func(t *testing.T) {
			blob, err := os.ReadFile(filepath.Join("testdata", fx.taca))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", fx.amr))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasSuffix(blob, fx.magic[:]) {
				t.Fatalf("fixture ends in %q, want %q", blob[len(blob)-8:], fx.magic)
			}
			r, err := Open(bytes.NewReader(blob), int64(len(blob)))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(serializeAll(t, r), want) {
				t.Fatal("fixture extracts differently from its recorded output")
			}
			if issues := r.Scrub(); len(issues) != 0 {
				t.Fatalf("scrub of the fixture: %v", issues)
			}

			path := filepath.Join(t.TempDir(), fx.taca)
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				t.Fatal(err)
			}
			w, f, err := OpenAppendFile(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if err := w.AddDataset(extra, codec.Config{ErrorBound: 1e-3, Mode: sz.Rel}); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			grown, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(grown, blob) || !bytes.HasSuffix(grown, trailer5Magic[:]) {
				t.Fatalf("append did not extend the fixture under a TACAEND5 trailer (ends %q)", grown[len(grown)-8:])
			}
			g, err := Open(bytes.NewReader(grown), int64(len(grown)))
			if err != nil {
				t.Fatal(err)
			}
			if !g.Checksummed() || !g.FooterChecksummed() || g.Generation() != r.Generation()+1 {
				t.Fatalf("appended archive: checksummed=%v footer=%v generation=%d, want v4 at generation %d",
					g.Checksummed(), g.FooterChecksummed(), g.Generation(), r.Generation()+1)
			}
			old := len(r.Members())
			if len(g.Members()) != old+1 {
				t.Fatalf("appended archive holds %d members, want %d", len(g.Members()), old+1)
			}
			// Verify every old frame by digest alone, then read the old
			// members back through the verified path.
			for mi := 0; mi < old; mi++ {
				if issues := g.ScrubMember(mi); len(issues) != 0 {
					t.Fatalf("old member %d fails its digest: %v", mi, issues)
				}
			}
			if !bytes.HasPrefix(serializeAll(t, g), want) {
				t.Fatal("old members extract differently after the append")
			}
		})
	}
}

// TestWriterMatchesLegacyFixtures pins the frame bytes across the move to
// one write format. Written by today's writer, the v1 fixture's input
// reproduces that fixture byte for byte up to its footer, and the
// whole v4 fixture, which an older writer produced from the same input.
func TestWriterMatchesLegacyFixtures(t *testing.T) {
	input, err := os.ReadFile("testdata/legacy_input.amr")
	if err != nil {
		t.Fatal(err)
	}
	// One shared bufio.Reader, which amr.ReadFrom reuses instead of
	// wrapping (and over-reading) again, so the datasets read in turn.
	in := bufio.NewReader(bytes.NewReader(input))
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.BatchBlocks = 4
	for i := 0; i < 2; i++ {
		ds, err := amr.ReadFrom(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AddDataset(ds, codec.Config{ErrorBound: 1e-3, Mode: sz.Rel}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	v1, err := os.ReadFile("testdata/legacy_gen0.taca")
	if err != nil {
		t.Fatal(err)
	}
	var flen uint64
	for i := 7; i >= 0; i-- {
		flen = flen<<8 | uint64(v1[len(v1)-trailerLen+i])
	}
	dataEnd := len(v1) - trailerLen - int(flen)
	if len(got) < dataEnd || !bytes.Equal(got[:dataEnd], v1[:dataEnd]) {
		t.Fatal("frames differ from the v1 fixture's")
	}
	v4, err := os.ReadFile("testdata/legacy_v4.taca")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v4) {
		t.Fatalf("writer output (%d bytes) differs from the v4 fixture (%d bytes)", len(got), len(v4))
	}
}
