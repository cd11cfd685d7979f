package server

import (
	"reflect"
	"testing"
)

// TestManifestKeepsItsOnDiskSpelling pins manifest.json to the keys data
// directories already hold: a manifest written before CreateSpec carried
// the /v1 JSON tags decodes to the same spec and re-encodes to the same
// bytes, and one spelled with the /v1 keys is refused instead of
// recovering a session with those settings zeroed.
func TestManifestKeepsItsOnDiskSpelling(t *testing.T) {
	const old = `{"ID":"s-1","Program":"(p x (a) --\u003e (halt))","Matcher":"parallel-rete","Strategy":"mea",` +
		`"Workers":2,"NoSteal":true,"ParallelFirings":3,"Quota":{"MaxWMEs":64,"MaxCyclesPerRequest":50}}`
	want := CreateSpec{
		ID: "s-1", Program: "(p x (a) --> (halt))", Matcher: "parallel-rete", Strategy: "mea",
		Workers: 2, NoSteal: true, ParallelFirings: 3,
		Quota: Quota{MaxWMEs: 64, MaxCyclesPerRequest: 50},
	}
	got, err := decodeManifest([]byte(old))
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("decodeManifest = %+v, %v; want %+v", got, err, want)
	}
	if enc, err := encodeManifest(got); err != nil || string(enc) != old {
		t.Fatalf("encodeManifest = %s, %v; want %s", enc, err, old)
	}
	for _, bad := range []string{
		`{"id":"s-1","program":"(p x (a) --> (halt))","no_steal":true,"parallel_firings":3,"max_wmes":64}`,
		old + ` {}`,
	} {
		if spec, err := decodeManifest([]byte(bad)); err == nil {
			t.Errorf("decodeManifest(%s) = %+v, want an error", bad, spec)
		}
	}
}
