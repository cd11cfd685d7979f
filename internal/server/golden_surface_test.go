package server

// Golden test for the /v1 wire surface. The JSON shapes of every
// request and response type on the versioned HTTP API are rendered —
// owning Go type, field names, JSON tags, types, omitempty — into a
// canonical text form and compared against testdata/v1_surface.golden.
// Renaming, removing or retyping a field fails here first: /v1 is a
// compatibility promise, and changing its shapes requires a deliberate
// golden update (run with -update-golden) plus, for breaking changes, a
// version bump.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/v1_surface.golden from the current types")

// v1Surface enumerates every type that crosses the /v1 wire, under its
// Go name: each is declared once, by the package that fills it. Adding
// a type here extends the frozen surface; removing one shrinks it —
// both show up as golden diffs.
func v1Surface() []any {
	return []any{
		CreateSpec{},
		ChangesRequest{},
		ChangeSpec{},
		ApplyResult{},
		RunRequest{},
		RunResult{},
		EventSpec{},
		StreamResult{},
		WMEInfo{},
		InstInfo{},
		SessionInfo{},
		SnapshotResult{},
		TraceResult{},
		obs.CycleSpan{TraceID: "t"}, // writes its own JSON; populated so omitempty keys show
		ProfileResult{},
		obs.NodeProfileEntry{},
		obs.MatchStats{},
		obs.WorkerStat{},
		obs.IndexReport{},
		LossResult{},
		obs.LossReport{},
		obs.PhaseSeconds{},
		obs.WorkerLoss{},
		obs.TaskBucket{},
		obs.LossComponent{},
		ErrorResponse{},
	}
}

// shapeOf renders one type's JSON shape, one line per field in encoding
// order: "Type.FieldName json-tag go-type". An embedded struct's fields
// are listed in place, as encoding/json flattens them. Struct-typed
// fields are not expanded — each such type is in the surface list under
// its own name — so each shape line has exactly one owner.
func shapeOf(v any) []string {
	t := reflect.TypeOf(v)
	if _, custom := v.(json.Marshaler); custom {
		// The type writes its own JSON; its shape is the keys it writes.
		raw, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.Token() // {
		var lines []string
		for dec.More() {
			key, _ := dec.Token()
			var val json.RawMessage
			dec.Decode(&val)
			lines = append(lines, fmt.Sprintf("%s\t%s\t(MarshalJSON)", t, key))
		}
		return lines
	}
	return fieldShapes(t.String(), t)
}

func fieldShapes(owner string, t reflect.Type) []string {
	var lines []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag := f.Tag.Get("json")
		switch {
		case !f.IsExported():
		case f.Anonymous && tag == "":
			lines = append(lines, fieldShapes(owner+"."+f.Name, f.Type)...)
		default:
			if tag == "" {
				tag = "(untagged:" + f.Name + ")"
			}
			lines = append(lines, fmt.Sprintf("%s.%s\t%s\t%s", owner, f.Name, tag, f.Type))
		}
	}
	return lines
}

func renderSurface() string {
	var b strings.Builder
	b.WriteString("# /v1 JSON wire surface. Regenerate with:\n")
	b.WriteString("#   go test ./internal/server -run TestV1SurfaceGolden -update-golden\n")
	b.WriteString("# A diff here means the public API shape changed — update deliberately.\n")
	for _, v := range v1Surface() {
		for _, line := range shapeOf(v) {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func TestV1SurfaceGolden(t *testing.T) {
	got := renderSurface()
	path := filepath.Join("testdata", "v1_surface.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o666); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Fatalf("/v1 JSON surface changed without a golden update.\n"+
			"If this change is intentional, regenerate with:\n"+
			"  go test ./internal/server -run TestV1SurfaceGolden -update-golden\n"+
			"and call out the API change in the PR.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestErrorEnvelopeShape pins the envelope contract itself: exactly
// three fields, code/message/retryable, matching what writeError and
// the cluster package emit.
func TestErrorEnvelopeShape(t *testing.T) {
	lines := shapeOf(ErrorResponse{})
	want := []string{
		"server.ErrorResponse.Code\tcode\tstring",
		"server.ErrorResponse.Message\tmessage\tstring",
		"server.ErrorResponse.Retryable\tretryable\tbool",
	}
	if !reflect.DeepEqual(lines, want) {
		t.Fatalf("error envelope shape drifted:\n got %q\nwant %q", lines, want)
	}
}
