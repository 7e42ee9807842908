package archive

import (
	"bytes"
	"os"
	"testing"
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
	var got bytes.Buffer
	for mi := range r.Members() {
		ds, err := r.Extract(mi)
		if err != nil {
			t.Fatalf("member %d: %v", mi, err)
		}
		if err := ds.Write(&got); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("version 1 archive extracts differently from its recorded output")
	}
	if issues := r.Scrub(); len(issues) != 0 {
		t.Fatalf("scrub of the fixture: %v", issues)
	}
}
