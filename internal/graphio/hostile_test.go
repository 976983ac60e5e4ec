package graphio_test

import (
	"strings"
	"testing"

	"magis/internal/ingest"
)

// hostileCorpus is the table of adversarially malformed graph documents
// the decoder must reject with a descriptive, typed error.
var hostileCorpus = []struct {
	name string
	doc  string
	want string // substring the error must carry
}{
	{
		name: "duplicate node id",
		doc: `{"version":1,"nodes":[
			{"id":3,"op":{"kind":"Input","out":[4],"dtype":0}},
			{"id":3,"op":{"kind":"ReLU","ins":[[4]],"out":[4],"dtype":0},"ins":[3]}]}`,
		want: "duplicate node id",
	},
	{
		name: "dangling input reference",
		doc: `{"version":1,"nodes":[
			{"id":0,"op":{"kind":"ReLU","ins":[[4]],"out":[4],"dtype":0,"links":[[{"In":1,"Out":1}]]},"ins":[7]}]}`,
		want: "undeclared input 7",
	},
	{
		name: "forward input reference",
		doc: `{"version":1,"nodes":[
			{"id":0,"op":{"kind":"ReLU","ins":[[4]],"out":[4],"dtype":0,"links":[[{"In":1,"Out":1}]]},"ins":[1]},
			{"id":1,"op":{"kind":"Input","out":[4],"dtype":0}}]}`,
		want: "undeclared input 1",
	},
	{
		name: "negative output dim",
		doc:  `{"version":1,"nodes":[{"id":0,"op":{"kind":"Input","out":[-4],"dtype":0}}]}`,
		want: "extent -4",
	},
	{
		name: "zero output dim",
		doc:  `{"version":1,"nodes":[{"id":0,"op":{"kind":"Input","out":[8,0],"dtype":0}}]}`,
		want: "extent 0",
	},
	{
		name: "negative input dim",
		doc: `{"version":1,"nodes":[
			{"id":0,"op":{"kind":"Input","out":[4],"dtype":0}},
			{"id":1,"op":{"kind":"ReLU","ins":[[-1]],"out":[4],"dtype":0},"ins":[0]}]}`,
		want: "input 0",
	},
	{
		name: "overflowing shape product",
		doc: `{"version":1,"nodes":[
			{"id":0,"op":{"kind":"Input","out":[2147483647,2147483647,2147483647],"dtype":0}}]}`,
		want: "overflows",
	},
	{
		name: "NaN shape dim is not JSON",
		doc:  `{"version":1,"nodes":[{"id":0,"op":{"kind":"Input","out":[NaN],"dtype":0}}]}`,
		want: "[syntax]",
	},
	{
		name: "fractional shape dim",
		doc:  `{"version":1,"nodes":[{"id":0,"op":{"kind":"Input","out":[4.5],"dtype":0}}]}`,
		want: "[syntax]",
	},
	{
		name: "unknown dtype",
		doc:  `{"version":1,"nodes":[{"id":0,"op":{"kind":"Input","out":[4],"dtype":99}}]}`,
		want: "dtype 99",
	},
	{
		name: "negative reduce extent",
		doc: `{"version":1,"nodes":[
			{"id":0,"op":{"kind":"Input","out":[4],"dtype":0,"reduce":[-2]}}]}`,
		want: "extent -2",
	},
	{
		name: "truncated document",
		doc:  `{"version":1,"nodes":[{"id":0,"op":{"kind":"Inp`,
		want: "[syntax]",
	},
}

func TestHostileDecodeCorpus(t *testing.T) {
	for _, tc := range hostileCorpus {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := load(strings.NewReader(tc.doc))
			if err == nil {
				t.Fatalf("hostile document accepted: %s", tc.doc)
			}
			if ingest.AsError(err) == nil {
				t.Fatalf("rejection is not a typed ingest error: %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not carry %q", err, tc.want)
			}
		})
	}
}

// TestHostileErrorsArePositional pins that structural rejections name the
// node and its position in the file — an operator debugging a rejected
// multi-thousand-node upload needs coordinates, not just a verdict.
func TestHostileErrorsArePositional(t *testing.T) {
	doc := `{"version":1,"nodes":[
		{"id":0,"op":{"kind":"Input","out":[4],"dtype":0}},
		{"id":9,"op":{"kind":"Input","out":[4],"dtype":42}}]}`
	_, _, err := load(strings.NewReader(doc))
	if err == nil {
		t.Fatal("bad dtype accepted")
	}
	for _, want := range []string{"node 9", "file index 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}
