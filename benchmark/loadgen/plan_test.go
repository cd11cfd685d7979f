package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// fakePsmd answers like psmd as far as the plans look: it assigns time
// tags in arrival order, keeps working-memory size, and never fires a
// rule. It records every request it is sent.
type fakePsmd struct {
	sessions map[string]*fakeSession
	sent     bytes.Buffer
}

type fakeSession struct{ nextTag, wm, changes int }

func (f *fakePsmd) Call(r Request) (int, []byte, error) {
	fmt.Fprintf(&f.sent, "%s %s\n%s\n", r.Method, r.Path, r.Body)
	if f.sessions == nil {
		f.sessions = map[string]*fakeSession{}
	}
	id, verb, _ := strings.Cut(strings.TrimPrefix(strings.TrimPrefix(r.Path, sessionsPath), "/"), "/")
	switch {
	case r.Method == "POST" && id == "":
		var req struct{ ID string }
		if err := json.Unmarshal(r.Body, &req); err != nil {
			return 400, nil, nil
		}
		f.sessions[req.ID] = &fakeSession{nextTag: 1}
		return 201, []byte(`{"shard":0}`), nil
	case r.Method == "DELETE":
		delete(f.sessions, id)
		return 204, nil, nil
	}
	s, ok := f.sessions[id]
	if !ok {
		return 404, []byte(`{"code":"not_found"}`), nil
	}
	var reply any
	switch verb {
	case "":
		reply = map[string]any{"wm_size": s.wm, "total_changes": s.changes}
	case "changes":
		var req struct {
			Changes []struct{ Op string }
		}
		if err := json.Unmarshal(r.Body, &req); err != nil {
			return 400, []byte(err.Error()), nil
		}
		tags := []int{}
		for _, c := range req.Changes {
			if c.Op == "assert" {
				tags = append(tags, s.nextTag)
				s.nextTag++
				s.wm++
			} else {
				s.wm--
			}
		}
		s.changes += len(req.Changes)
		reply = map[string]any{"applied": len(req.Changes), "tags": tags, "wm_size": s.wm}
	case "run":
		reply = map[string]any{"halted": true, "wm_size": s.wm}
	case "stream":
		n := bytes.Count(r.Body, []byte("\n"))
		s.wm += n
		s.changes += n
		reply = map[string]any{"events": n, "wm_size": s.wm}
	}
	data, err := json.Marshal(reply)
	return 200, data, err
}

// requestStream plays set-up and a few operations of every client
// against the fake and returns every byte sent.
func requestStream(t *testing.T, name string, seed int64) []byte {
	t.Helper()
	plan, err := NewPlan("..", name, seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := &fakePsmd{}
	if err := plan.Prepare(f); err != nil {
		t.Fatalf("%s: prepare: %v", name, err)
	}
	for i := 0; i < 40; i++ {
		if _, err := plan.Op(f, i%plan.Clients); err != nil {
			t.Fatalf("%s: op %d: %v", name, i, err)
		}
	}
	return f.sent.Bytes()
}

func TestOneSeedYieldsByteIdenticalRequestStreams(t *testing.T) {
	for _, spec := range Workloads {
		a := requestStream(t, spec.Name, 7)
		b := requestStream(t, spec.Name, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two plans from one seed sent different bytes", spec.Name)
		}
		if c := requestStream(t, spec.Name, 8); bytes.Equal(a, c) {
			t.Errorf("%s: a different seed sent the same bytes", spec.Name)
		}
	}
}

// chatter_wal must send exactly what chatter_http sends: the difference
// between the two workloads is psmd's flags, nothing else.
func TestChatterWalSendsChatterHTTPsRequests(t *testing.T) {
	if !bytes.Equal(requestStream(t, "chatter_http", 3), requestStream(t, "chatter_wal", 3)) {
		t.Error("chatter_wal and chatter_http send different requests")
	}
}

func TestOracleComparesBothMatchers(t *testing.T) {
	for _, spec := range Workloads {
		plan, err := NewPlan("..", spec.Name, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		f := &fakePsmd{}
		if err := plan.Oracle(f); err != nil {
			t.Errorf("%s: oracle against a consistent fake: %v", spec.Name, err)
		}
		if sent := f.sent.String(); !strings.Contains(sent, `"matcher":"naive"`) {
			t.Errorf("%s: the oracle never created a naive session", spec.Name)
		}
		if len(f.sessions) != 0 {
			t.Errorf("%s: the oracle left %d sessions behind", spec.Name, len(f.sessions))
		}
	}
}

func TestMemoFlagsADifferentReplyToTheSameInput(t *testing.T) {
	var m memo
	if err := m.check("x", 1, reply{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := m.check("x", 1, reply{1, 2}); err != nil {
		t.Errorf("identical replay flagged: %v", err)
	}
	if err := m.check("x", 1, reply{1, 3}); err == nil {
		t.Error("a different reply to the same input was not flagged")
	}
	if err := m.check("x", 2, reply{9}); err != nil {
		t.Errorf("a new input flagged: %v", err)
	}
}
