package server

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// TestManifestKeepsItsOnDiskSpelling pins manifest.json to the keys data
// directories already hold: a manifest written before CreateSpec carried
// the /v1 JSON tags decodes to the same spec and re-encodes to the same
// bytes, and one spelled with the /v1 keys is refused instead of
// recovering a session with those settings zeroed. The NoSteal key of
// an older psmd decodes whichever way it was set and is written false.
func TestManifestKeepsItsOnDiskSpelling(t *testing.T) {
	const old = `{"ID":"s-1","Program":"(p x (a) --\u003e (halt))","Matcher":"parallel-rete","Strategy":"mea",` +
		`"Workers":2,"NoSteal":false,"ParallelFirings":3,"Quota":{"MaxWMEs":64,"MaxCyclesPerRequest":50}}`
	want := CreateSpec{
		ID: "s-1", Program: "(p x (a) --> (halt))", Matcher: "parallel-rete", Strategy: "mea",
		Workers: 2, ParallelFirings: 3,
		Quota: Quota{MaxWMEs: 64, MaxCyclesPerRequest: 50},
	}
	for _, data := range []string{old, strings.Replace(old, `"NoSteal":false`, `"NoSteal":true`, 1)} {
		got, err := decodeManifest([]byte(data))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeManifest(%s) = %+v, %v; want %+v", data, got, err, want)
		}
		if enc, err := encodeManifest(got); err != nil || string(enc) != old {
			t.Fatalf("encodeManifest = %s, %v; want %s", enc, err, old)
		}
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

// TestCreateRefusesNoSteal pins the other half of the retired switch:
// the /v1 create body no longer carries no_steal, so a body that sets it
// gets the same 400 as any unknown field.
func TestCreateRefusesNoSteal(t *testing.T) {
	s := New(Config{Shards: 1})
	defer s.Close()
	body := `{"id":"s-1","program":"(p x (a) --> (halt))","matcher":"parallel-rete","no_steal":true}`
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions", strings.NewReader(body)))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `unknown field \"no_steal\"`) {
		t.Fatalf("create with no_steal: %d %s, want 400 for the unknown field", rec.Code, rec.Body)
	}
}
