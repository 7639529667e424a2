package interchange

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"repro/internal/suite"
)

// FuzzReadSpace checks the space-document reader on arbitrary bytes:
// ReadSpace never panics, every document it accepts builds a Graph with
// one variable per entry and one type-change set per listed cluster, and
// the document reads back equal after it is encoded again. The seed
// corpus under testdata/fuzz holds a hand-written document, documents
// that differ from it in one field, and the duplicate-name document
// whose Graph call used to panic; every port's exported space is added
// here.
func FuzzReadSpace(f *testing.F) {
	for _, b := range suite.All() {
		var buf bytes.Buffer
		if err := WriteSpace(&buf, b); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := ReadSpace(bytes.NewReader(data))
		if err != nil {
			return
		}
		g, err := doc.Graph()
		if err != nil {
			t.Fatalf("accepted document does not build a graph: %v", err)
		}
		if g.NumVars() != len(doc.Variables) || g.NumClusters() != len(doc.Clusters) {
			t.Fatalf("graph has %d variables in %d clusters, document %d in %d",
				g.NumVars(), g.NumClusters(), len(doc.Variables), len(doc.Clusters))
		}
		enc, err := json.Marshal(doc)
		if err != nil {
			t.Fatalf("encoding an accepted document: %v", err)
		}
		back, err := ReadSpace(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded document %s refused: %v", enc, err)
		}
		if !reflect.DeepEqual(back, doc) {
			t.Fatalf("document read back as %+v, want %+v", back, doc)
		}
	})
}

// FuzzReadConfig checks the configuration-document reader on arbitrary
// bytes and a program size: ReadConfig never panics, an accepted
// document reads back equal after it is encoded again, and when Config
// accepts it for n variables, the configuration demotes exactly the
// listed variables, so exporting it lists them once each, in order.
func FuzzReadConfig(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		doc, err := ReadConfig(bytes.NewReader(data))
		if err != nil {
			return
		}
		enc, err := json.Marshal(doc)
		if err != nil {
			t.Fatalf("encoding an accepted document: %v", err)
		}
		back, err := ReadConfig(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded document %s refused: %v", enc, err)
		}
		if !reflect.DeepEqual(back, doc) {
			t.Fatalf("document read back as %+v, want %+v", back, doc)
		}
		cfg, err := doc.Config(int(n))
		if err != nil {
			return
		}
		want := slices.Clone(doc.Single)
		slices.Sort(want)
		want = slices.Compact(want)
		if got := ExportConfig(doc.Benchmark, cfg).Single; !slices.Equal(got, want) {
			t.Fatalf("configuration demotes %v, document lists %v", got, doc.Single)
		}
	})
}
