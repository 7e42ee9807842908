package archive

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/amr"
	"repro/internal/codec"
)

// maskedValues flattens a dataset to its stored values, level by level.
func maskedValues(ds *amr.Dataset) []amr.Value {
	var out []amr.Value
	for _, l := range ds.Levels {
		out = l.MaskedValues(out)
	}
	return out
}

// TestFooterSumRoundTrip checks the trailer's footer digest on a fresh
// archive: it ends in TACAEND5, its words locate the footer at
// generation 0, its digest is the CRC32C of the footer and those words,
// and the archive reports both digest kinds and scrubs clean.
func TestFooterSumRoundTrip(t *testing.T) {
	v4 := buildArchive(t, testSnapshots(t)[:2], codec.Config{ErrorBound: testEB}, 8)
	if !bytes.HasSuffix(v4, trailer5Magic[:]) {
		t.Fatalf("archive does not end with TACAEND5: %q", v4[len(v4)-8:])
	}
	trailer := v4[len(v4)-trailer5Len:]
	flen := binary.LittleEndian.Uint64(trailer)
	if gen := binary.LittleEndian.Uint64(trailer[8:]); gen != 0 {
		t.Fatalf("fresh archive trailer records generation %d", gen)
	}
	footer := v4[len(v4)-trailer5Len-int(flen) : len(v4)-trailer5Len]
	want := crc32.Update(crc32.Checksum(footer, castagnoli), castagnoli, trailer[:16])
	if got := binary.LittleEndian.Uint32(trailer[16:]); got != want {
		t.Fatalf("trailer digest %08x, want %08x over the footer and trailer words", got, want)
	}
	r, err := Open(bytes.NewReader(v4), int64(len(v4)))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Checksummed() || !r.FooterChecksummed() {
		t.Fatalf("Checksummed=%v FooterChecksummed=%v, want both", r.Checksummed(), r.FooterChecksummed())
	}
	if issues := r.Scrub(); len(issues) != 0 {
		t.Fatalf("clean v4 archive scrubs dirty: %v", issues)
	}
}

// TestFooterSumAppendInheritance appends to a v4 file: the appended
// generation keeps the footer digest.
func TestFooterSumAppendInheritance(t *testing.T) {
	snaps := testSnapshots(t)
	path := filepath.Join(t.TempDir(), "v4.taca")
	if err := os.WriteFile(path, buildArchive(t, snaps[:1], codec.Config{ErrorBound: testEB}, 8), 0o644); err != nil {
		t.Fatal(err)
	}
	w, f, err := OpenAppendFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := w.AddDataset(snaps[1], codec.Config{ErrorBound: testEB}); err != nil {
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
	if !r.FooterChecksummed() || r.Generation() != 1 || len(r.Members()) != 2 {
		t.Fatalf("appended v4 archive: fsum=%v gen=%d members=%d", r.FooterChecksummed(), r.Generation(), len(r.Members()))
	}
	if issues := r.Scrub(); len(issues) != 0 {
		t.Fatalf("appended v4 archive scrubs dirty: %v", issues)
	}
}

// TestFooterSumGenerationFallback is the survivability sweep: a single
// bit flipped at EVERY byte of a 3-generation v4 archive's newest
// footer+trailer must make Open reject that generation (the digest seals
// footer, length, and generation words; the magic bytes reject
// structurally) and recover generation N-1 with exactly its committed
// index.
func TestFooterSumGenerationFallback(t *testing.T) {
	snaps := testSnapshots(t)[:3]
	path := filepath.Join(t.TempDir(), "gens.taca")
	if err := os.WriteFile(path, buildArchive(t, snaps[:1], codec.Config{ErrorBound: testEB}, 8), 0o644); err != nil {
		t.Fatal(err)
	}
	var ends []int64
	appendOne := func(ds *amr.Dataset) {
		t.Helper()
		w, f, err := OpenAppendFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := w.AddDataset(ds, codec.Config{ErrorBound: testEB}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		st, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, st.Size())
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	ends = append(ends, st.Size())
	appendOne(snaps[1])
	appendOne(snaps[2])

	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	size1, size2 := ends[1], ends[2]
	// The gen-1 reference view: the archive exactly as committed before
	// the last append.
	ref, err := Open(bytes.NewReader(full[:size1]), size1)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Generation() != 1 || len(ref.Members()) != 2 {
		t.Fatalf("reference view: gen=%d members=%d", ref.Generation(), len(ref.Members()))
	}
	refVals := make([][]amr.Value, len(ref.Members()))
	for i := range refVals {
		ds, err := ref.Extract(i)
		if err != nil {
			t.Fatal(err)
		}
		refVals[i] = maskedValues(ds)
	}

	// Locate generation 2's footer from its trailer.
	var flen uint64
	for i := 7; i >= 0; i-- {
		flen = flen<<8 | uint64(full[size2-trailer5Len+int64(i)])
	}
	footerStart := size2 - trailer5Len - int64(flen)
	if footerStart <= size1 {
		t.Fatalf("gen-2 footer start %d not past gen-1 end %d", footerStart, size1)
	}

	damaged := append([]byte(nil), full...)
	for off := footerStart; off < size2; off++ {
		damaged[off] ^= 0x10
		rd, err := Open(bytes.NewReader(damaged), size2)
		if err != nil {
			t.Fatalf("flip at %d: Open failed outright: %v", off, err)
		}
		if rd.Generation() != 1 || rd.EndOffset() != size1 {
			t.Fatalf("flip at %d: recovered gen=%d end=%d, want gen 1 ending at %d", off, rd.Generation(), rd.EndOffset(), size1)
		}
		if !reflect.DeepEqual(rd.Members(), ref.Members()) {
			t.Fatalf("flip at %d: recovered index differs from the committed gen-1 index", off)
		}
		// Full byte-identical extraction is pricey; spot-check it on a
		// stride plus the first and last offsets of the sweep.
		if off == footerStart || off == size2-1 || (off-footerStart)%97 == 0 {
			for i := range rd.Members() {
				ds, err := rd.Extract(i)
				if err != nil {
					t.Fatalf("flip at %d: extracting member %d: %v", off, i, err)
				}
				if !reflect.DeepEqual(maskedValues(ds), refVals[i]) {
					t.Fatalf("flip at %d: member %d extraction differs from gen-1 reference", off, i)
				}
			}
		}
		damaged[off] ^= 0x10
	}
}
