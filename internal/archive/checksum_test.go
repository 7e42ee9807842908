package archive

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/amr"
	"repro/internal/codec"
)

// TestChecksumRoundTrip checks that the writer's output carries a digest
// per frame under the v4 (TACAEND5) trailer and extracts within the
// bound. That the frames themselves are the ones the digest-free format
// stored is pinned by TestWriterMatchesLegacyFixtures.
func TestChecksumRoundTrip(t *testing.T) {
	snaps := testSnapshots(t)
	blob := buildArchive(t, snaps, codec.Config{ErrorBound: testEB}, 8)
	if !bytes.HasSuffix(blob, trailer5Magic[:]) {
		t.Fatalf("archive does not end with %q", trailer5Magic)
	}
	r, err := Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Checksummed() || !r.FooterChecksummed() {
		t.Fatalf("Checksummed=%v FooterChecksummed=%v, want both", r.Checksummed(), r.FooterChecksummed())
	}
	for mi := range r.Members() {
		m := &r.Members()[mi]
		for li := range m.Levels {
			idx := &m.Levels[li]
			if len(idx.Sums) != len(idx.Batches) {
				t.Fatalf("member %d level %d: %d sums for %d batches", mi, li, len(idx.Sums), len(idx.Batches))
			}
		}
		recon, err := r.Extract(mi)
		if err != nil {
			t.Fatal(err)
		}
		for li, l := range snaps[mi].Levels {
			if worst := maskedMaxErr(l, recon.Levels[li], l.Mask); worst > testEB {
				t.Fatalf("member %d level %d max err %.4g > bound %.4g", mi, li, worst, testEB)
			}
		}
	}
	if issues := r.Scrub(); len(issues) != 0 {
		t.Fatalf("clean archive scrubbed %d issues: %v", len(issues), issues[0])
	}
}

// TestChecksumDetectsEveryFrameFlip is the 100%-detection sweep: one bit
// flipped in the middle of EVERY frame of an archive must be
// caught both by the read path (DecodeBatch → ErrCorrupt) and by Scrub,
// which must name exactly the damaged frame. sz streams themselves are
// not checksummed, so without digests some of these flips would decode
// to silently wrong values (see TestFrameDamageIsErrCorrupt).
func TestChecksumDetectsEveryFrameFlip(t *testing.T) {
	snaps := testSnapshots(t)
	blob := buildArchive(t, snaps[:2], codec.Config{ErrorBound: testEB}, 8)
	clean, err := Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}

	frames := 0
	for mi := range clean.Members() {
		m := &clean.Members()[mi]
		for li := range m.Levels {
			for b, rec := range m.Levels[li].Batches {
				frames++
				damaged := append([]byte(nil), blob...)
				damaged[rec.Offset+rec.Length/2] ^= 0x04

				dr, err := Open(bytes.NewReader(damaged), int64(len(damaged)))
				if err != nil {
					t.Fatalf("frame damage broke Open: %v", err)
				}
				if _, err := dr.DecodeBatch(mi, li, b); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("member %d level %d batch %d: flipped frame decoded without ErrCorrupt (err=%v)", mi, li, b, err)
				} else if errors.Is(err, ErrIO) {
					t.Fatalf("member %d level %d batch %d: checksum mismatch tagged ErrIO: %v", mi, li, b, err)
				}
				issues := dr.Scrub()
				if len(issues) != 1 {
					t.Fatalf("member %d level %d batch %d: scrub found %d issues, want exactly 1", mi, li, b, len(issues))
				}
				is := issues[0]
				if is.Member != mi || is.Level != li || is.Batch != b {
					t.Fatalf("scrub blamed member %d level %d batch %d, damage was %d/%d/%d", is.Member, is.Level, is.Batch, mi, li, b)
				}
				if !strings.Contains(is.String(), "checksum") {
					t.Fatalf("scrub issue does not mention the checksum: %v", is)
				}
			}
		}
	}
	if frames < 4 {
		t.Fatalf("sweep covered only %d frames — archive too small to mean anything", frames)
	}
}

// TestChecksumAppendUpgrade appends to a digest-free (v1) archive:
// OpenAppend digests the committed frames by reading them back, so the
// first commit seals the whole archive at v4, and the next append keeps
// it there.
func TestChecksumAppendUpgrade(t *testing.T) {
	snaps := testSnapshots(t)
	cfg := codec.Config{ErrorBound: testEB}
	legacy, err := os.ReadFile("testdata/legacy_gen0.taca")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "upgrade.taca")
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	appendOne := func(ds *amr.Dataset, wantMembers int) {
		t.Helper()
		w, f, err := OpenAppendFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := w.AddDataset(ds, cfg); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if !r.Checksummed() || !r.FooterChecksummed() {
			t.Fatalf("appended archive: checksummed=%v footer checksummed=%v, want both", r.Checksummed(), r.FooterChecksummed())
		}
		if got := len(r.Members()); got != wantMembers {
			t.Fatalf("appended archive holds %d members, want %d", got, wantMembers)
		}
		if issues := r.Scrub(); len(issues) != 0 {
			t.Fatalf("appended archive scrubbed %d issues: %v", len(issues), issues[0])
		}
	}
	appendOne(snaps[2], 3)
	appendOne(snaps[3], 4)
}

// TestChecksumDeltaCampaign runs campaign (delta) mode: the archive must
// carry both delta links and sums, and
// every chain member must still reconstruct within the bound.
func TestChecksumDeltaCampaign(t *testing.T) {
	const keyframe = 3
	snaps := testCampaign(t, 5)
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.BatchBlocks = 16
	w.Keyframe = keyframe
	for _, ds := range snaps {
		if err := w.AddDataset(ds, codec.Config{ErrorBound: testEB}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	r, err := Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Checksummed() {
		t.Fatal("delta campaign archive is not checksummed")
	}
	sawDelta := false
	for i := range snaps {
		if r.Members()[i].IsDelta() {
			sawDelta = true
		}
		recon, err := r.Extract(i)
		if err != nil {
			t.Fatal(err)
		}
		for li, l := range snaps[i].Levels {
			if worst := maskedMaxErr(l, recon.Levels[li], l.Mask); worst > testEB {
				t.Fatalf("member %d level %d max err %.4g > bound %.4g", i, li, worst, testEB)
			}
		}
	}
	if !sawDelta {
		t.Fatal("campaign archive holds no delta member — drift too large?")
	}
	if issues := r.Scrub(); len(issues) != 0 {
		t.Fatalf("clean campaign archive scrubbed %d issues: %v", len(issues), issues[0])
	}
}
