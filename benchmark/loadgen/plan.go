// Package loadgen is psmbench's load generator: it makes every input
// from a seed, drives psmd through the frozen /v1 HTTP surface, checks
// each reply, and turns what it observed into the benchmark's
// end-to-end metrics. It imports nothing from repro/internal — psmd is
// a black box to it — so no refactor inside the engine can break the
// end-to-end run. The traced, in-process run lives in
// benchmark/layers and reuses this package's plans through the Caller
// interface.
package loadgen

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Request is one HTTP request to psmd.
type Request struct {
	Method      string
	Path        string
	ContentType string
	Body        []byte
}

// Caller delivers one request and returns the reply's status and body.
// The end-to-end run calls over TCP; the traced run calls the handler
// in-process and records what went by.
type Caller interface {
	Call(r Request) (status int, body []byte, err error)
}

// Spec names one workload and says why it exists. BENCHMARK.json
// repeats these; a test keeps the two in step.
type Spec struct {
	Name string
	Why  string
}

// Workloads lists the five workloads in the order they run.
var Workloads = []Spec{
	{"manners_rete", "Miss Manners, 32 guests, serial rete: join, conflict resolution and act do the work; server sees six requests per solve"},
	{"bulk_prete", "300-production dispatch program, 384-change batches into one parallel-rete session: the only workload where the parallel matcher can use the second core"},
	{"chatter_http", "64 sessions of an 8-rule pack, two changes per request: match cost is tiny, so HTTP, routing and the shard mailbox dominate; bypass for every matcher change"},
	{"chatter_wal", "chatter_http's byte-identical requests against psmd with a write-ahead log: the difference is the durable layer; ends with kill -9 and recovery"},
	{"stream_fraud", "fraud velocity pack over NDJSON /stream with a sliding 20-tick window: inserts and TTL retractions in equal numbers, so the rete delete path and the TTL heap show"},
}

// Plan is one workload's inputs and per-session client state for one
// psmd instance: Oracle and Prepare run during set-up, then Op is
// called repeatedly, concurrently for different clients but never
// concurrently for one client. A plan serves one psmd lifetime; make a
// new one for a fresh psmd.
type Plan struct {
	Name string
	// Clients is how many callers Op may be driven by; each owns a
	// fixed share of the sessions.
	Clients int
	// Durable says psmd must run with a write-ahead log (DurableArgs)
	// and that the run ends with the kill-and-recover check.
	Durable bool
	drv     driver
}

// DurableArgs are the psmd flags of a Durable plan, after -data-dir.
var DurableArgs = []string{"-fsync", "interval", "-snapshot-every", "1024"}

// driver is one workload's behaviour behind Plan.
type driver interface {
	// oracle plays a reduced input through a session of the workload's
	// matcher and a session of the naive matcher and compares replies.
	oracle(c Caller) error
	// prepare creates the sessions, preloads them and runs the warm-up
	// operations.
	prepare(c Caller) error
	// op runs the client's next operation. changes is the
	// total_changes of a session the operation created and deleted
	// (sessions that outlive the operation are sampled by Sessions).
	op(c Caller, client int) (changes int, err error)
	// sessions lists the long-lived sessions the client drives.
	sessions(client int) []string
}

// NewPlan generates the named workload's inputs from seed for a
// machine with nproc processors. root is the benchmark directory (the
// one holding rules/).
func NewPlan(root, name string, seed int64, nproc int) (*Plan, error) {
	rules := func(file string) (string, error) {
		data, err := os.ReadFile(filepath.Join(root, "rules", file))
		if err != nil {
			return "", fmt.Errorf("read rule pack: %w", err)
		}
		return string(data), nil
	}
	p := &Plan{Name: name, Clients: nproc}
	switch name {
	case "manners_rete":
		src, err := rules("manners.ops")
		if err != nil {
			return nil, err
		}
		p.drv = newManners(src, seed, p.Clients)
	case "bulk_prete":
		src, err := rules("dispatch.ops")
		if err != nil {
			return nil, err
		}
		p.Clients = 1
		p.drv = newBulk(src, seed, nproc)
	case "chatter_http", "chatter_wal":
		src, err := rules("chatter.ops")
		if err != nil {
			return nil, err
		}
		p.Durable = name == "chatter_wal"
		p.drv = newChatter(src, seed, p.Clients)
	case "stream_fraud":
		src, err := rules("fraud.ops")
		if err != nil {
			return nil, err
		}
		p.drv = newStream(src, seed, p.Clients)
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return p, nil
}

// Oracle runs the workload's reduced-size differential check: the same
// input through the workload's matcher and through the naive matcher
// must produce the same replies.
func (p *Plan) Oracle(c Caller) error { return p.drv.oracle(c) }

// Prepare creates and preloads the sessions and runs the warm-up
// operations; after it the plan is at its first timed operation.
func (p *Plan) Prepare(c Caller) error { return p.drv.prepare(c) }

// Op runs the client's next operation and checks every reply in it.
func (p *Plan) Op(c Caller, client int) (changes int, err error) { return p.drv.op(c, client) }

// Sessions lists the long-lived sessions the client drives, for
// sampling total_changes at window edges.
func (p *Plan) Sessions(client int) []string { return p.drv.sessions(client) }

// reply is the part of a psmd reply that must repeat when the same
// input is replayed: counters and sizes, never timings or ids.
type reply [6]int

// memo remembers the first reply seen for each input position and
// reports any later reply to the same input that differs — the
// determinism check. Sessions fed identical streams share one memo.
type memo struct {
	mu   sync.Mutex
	seen map[int]reply
}

func (m *memo) check(what string, key int, got reply) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.seen == nil {
		m.seen = make(map[int]reply)
	}
	want, ok := m.seen[key]
	if !ok {
		m.seen[key] = got
		return nil
	}
	if want != got {
		return fmt.Errorf("%s %d: reply %v differs from the first reply to the same input %v", what, key, got, want)
	}
	return nil
}

// The reply shapes the load generator reads (a subset of psmd's /v1
// wire types; unknown fields are ignored).
type changesReply struct {
	Applied      int   `json:"applied"`
	Tags         []int `json:"tags"`
	WMSize       int   `json:"wm_size"`
	ConflictSize int   `json:"conflict_size"`
}

type runReply struct {
	Cycles       int  `json:"cycles"`
	Fired        int  `json:"fired"`
	Halted       bool `json:"halted"`
	WMSize       int  `json:"wm_size"`
	ConflictSize int  `json:"conflict_size"`
}

type streamReply struct {
	Events       int `json:"events"`
	Fired        int `json:"fired"`
	Expired      int `json:"expired"`
	Clock        int `json:"clock"`
	WMSize       int `json:"wm_size"`
	ConflictSize int `json:"conflict_size"`
}

// SessionReply is GET /v1/sessions/{id}.
type SessionReply struct {
	WMSize       int  `json:"wm_size"`
	ConflictSize int  `json:"conflict_size"`
	Cycles       int  `json:"cycles"`
	Fired        int  `json:"fired"`
	TotalChanges int  `json:"total_changes"`
	Recovered    bool `json:"recovered"`
}

const sessionsPath = "/v1/sessions"

// call sends one request, requires the wanted status, and decodes a
// JSON reply into out when out is non-nil.
func call(c Caller, r Request, want int, out any) error {
	status, body, err := c.Call(r)
	if err != nil {
		return fmt.Errorf("%s %s: %w", r.Method, r.Path, err)
	}
	if status != want {
		return fmt.Errorf("%s %s: status %d, want %d: %s", r.Method, r.Path, status, want, snippet(body))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("%s %s: decode reply: %w", r.Method, r.Path, err)
	}
	return nil
}

func snippet(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return s
}

func post(c Caller, path string, body []byte, want int, out any) error {
	return call(c, Request{Method: "POST", Path: path, ContentType: "application/json", Body: body}, want, out)
}

// createSession creates a session and reports which engine shard psmd
// placed it on; program is the rule pack already encoded as a JSON
// string.
func createSession(c Caller, id string, program []byte, matcher string, workers int) (shard int, err error) {
	b := []byte(`{"id":"` + id + `","program":`)
	b = append(b, program...)
	b = append(b, `,"matcher":"`+matcher+`"`...)
	if workers > 0 {
		b = append(b, fmt.Sprintf(`,"workers":%d`, workers)...)
	}
	b = append(b, '}')
	var created struct {
		Shard int `json:"shard"`
	}
	err = post(c, sessionsPath, b, 201, &created)
	return created.Shard, err
}

func deleteSession(c Caller, id string) error {
	return call(c, Request{Method: "DELETE", Path: sessionsPath + "/" + id}, 204, nil)
}

// GetSession reads one session's counters.
func GetSession(c Caller, id string) (SessionReply, error) {
	var s SessionReply
	err := call(c, Request{Method: "GET", Path: sessionsPath + "/" + id}, 200, &s)
	return s, err
}

// applyChanges posts one /changes body and checks the applied count.
func applyChanges(c Caller, id string, b batch) (changesReply, error) {
	var r changesReply
	if err := post(c, sessionsPath+"/"+id+"/changes", b.body, 200, &r); err != nil {
		return r, err
	}
	if r.Applied != b.n {
		return r, fmt.Errorf("session %s: applied %d changes, sent %d", id, r.Applied, b.n)
	}
	return r, nil
}

func runCycles(c Caller, id string, body string) (runReply, error) {
	var r runReply
	err := post(c, sessionsPath+"/"+id+"/run", []byte(body), 200, &r)
	return r, err
}

// jsonString encodes a rule pack as a JSON string once, so session
// creation can splice it into request bodies.
func jsonString(s string) []byte {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // a string always encodes
	}
	return b
}

// warmUp runs each client's first operations, one client after the
// other; ops says how many a client gets.
func warmUp(c Caller, d driver, clients int, ops func(client int) int) error {
	for cl := 0; cl < clients; cl++ {
		for i := ops(cl); i > 0; i-- {
			if _, err := d.op(c, cl); err != nil {
				return err
			}
		}
	}
	return nil
}

// runOracle plays one reduced input twice — through a session of the
// workload's matcher and through a session of the naive matcher — and
// reports the first position at which their replies differ.
func runOracle(matcher string, play func(id, matcher string) ([]reply, error)) error {
	got, err := play("oracle-"+matcher, matcher)
	if err != nil {
		return err
	}
	want, err := play("oracle-naive", "naive")
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("oracle: %s answered %d replies, naive %d", matcher, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("oracle: reply %d: %s %v, naive %v", i, matcher, got[i], want[i])
		}
	}
	return nil
}

// ---------------------------------------------------------------- manners

const (
	mannersGuests = 32
	// mannersPool is how many distinct problems one seed yields. Solve
	// time varies by about a tenth from problem to problem; a pool this
	// size keeps the run's mean within a percent or two whatever the
	// seed, and every problem is replayed several times in a run, so
	// replies can be checked against the first solve.
	mannersPool         = 64
	mannersWarmupSolves = 2
	mannersOracleGuests = 8
)

type mannersDrv struct {
	program []byte
	clients int
	pool    [][]batch
	oracleP []batch
	ids     []string // per client: the session id it creates and deletes
	next    []int    // per client: operations run so far
	memo    memo
}

func newManners(src string, seed int64, clients int) *mannersDrv {
	rng := newRand(seed, 1)
	d := &mannersDrv{program: jsonString(src), clients: clients, next: make([]int, clients)}
	for i := 0; i < mannersPool; i++ {
		d.pool = append(d.pool, mannersInstance(rng, mannersGuests))
	}
	d.oracleP = mannersInstance(rng, mannersOracleGuests)
	return d
}

// solve is the manners operation: create, assert the guests, run to
// halt, read the counters, delete.
func (d *mannersDrv) solve(c Caller, id, matcher string, problem []batch) (reply, error) {
	if _, err := createSession(c, id, d.program, matcher, 0); err != nil {
		return reply{}, err
	}
	for _, b := range problem {
		if _, err := applyChanges(c, id, b); err != nil {
			return reply{}, err
		}
	}
	run, err := runCycles(c, id, `{}`)
	if err != nil {
		return reply{}, err
	}
	if !run.Halted {
		return reply{}, fmt.Errorf("session %s: manners stopped after %d cycles without halting", id, run.Cycles)
	}
	st, err := GetSession(c, id)
	if err != nil {
		return reply{}, err
	}
	if err := deleteSession(c, id); err != nil {
		return reply{}, err
	}
	return reply{run.Cycles, run.Fired, run.WMSize, run.ConflictSize, st.TotalChanges, st.Fired}, nil
}

func (d *mannersDrv) oracle(c Caller) error {
	return runOracle("rete", func(id, matcher string) ([]reply, error) {
		r, err := d.solve(c, id, matcher, d.oracleP)
		return []reply{r}, err
	})
}

// mannersIDTries bounds the search for a session id on a free shard.
const mannersIDTries = 16

// pickIDs gives every client a session id that psmd places on an
// engine shard no other client uses, as long as there are shards left
// (psmd reports the shard when it creates a session). Two clients whose
// sessions hash to one shard take turns instead of running side by
// side; with fresh ids per solve that happened to a random half of all
// solves and made the latency of a round bimodal.
func (d *mannersDrv) pickIDs(c Caller) error {
	taken := map[int]bool{}
	d.ids = make([]string, d.clients)
	for cl := range d.ids {
		for try := 0; try < mannersIDTries; try++ {
			id := fmt.Sprintf("mm-%d-%d", cl, try)
			shard, err := createSession(c, id, d.program, "rete", 0)
			if err != nil {
				return err
			}
			if err := deleteSession(c, id); err != nil {
				return err
			}
			d.ids[cl] = id
			if !taken[shard] {
				taken[shard] = true
				break
			}
		}
	}
	return nil
}

func (d *mannersDrv) prepare(c Caller) error {
	if err := d.pickIDs(c); err != nil {
		return err
	}
	return warmUp(c, d, d.clients, func(int) int { return mannersWarmupSolves })
}

func (d *mannersDrv) op(c Caller, client int) (int, error) {
	i := d.next[client]
	d.next[client]++
	// Clients start at different places in the pool so they do not
	// solve the same problem at the same moment.
	problem := (client*mannersPool/d.clients + i) % mannersPool
	r, err := d.solve(c, d.ids[client], "rete", d.pool[problem])
	if err != nil {
		return 0, err
	}
	return r[4], d.memo.check("manners problem", problem, r)
}

func (d *mannersDrv) sessions(int) []string { return nil }

// ---------------------------------------------------------------- bulk

const (
	bulkArrivals = 64 // per request; three elements each
	bulkLag      = 8  // a request retracts what the request bulkLag earlier asserted
	// bulkSlots is the length of the cycle of distinct requests. Once
	// bulkLag requests are in, working memory at request i holds the
	// same arrivals as at request i+bulkSlots, so the replies repeat.
	bulkSlots        = 64
	bulkWarmupOps    = 2 * bulkLag
	bulkOracleOps    = 4
	bulkOracleArrive = 8
	bulkOracleLag    = 2
)

// bulkSession is the client state of one dispatch session: the tags of
// the last lag requests, waiting to be retracted.
type bulkSession struct {
	id   string
	lag  int
	tags [][]int
	ops  int
	buf  []byte
}

// step sends one request: retract what the request lag steps back
// asserted, then assert this request's arrivals.
func (s *bulkSession) step(c Caller, asserts []byte, arrivals int) (reply, error) {
	b := append(s.buf[:0], changesOpen...)
	n := 0
	if s.ops >= s.lag {
		for _, t := range s.tags[s.ops%s.lag] {
			b = appendRetract(b, t)
			b = append(b, ',')
			n++
		}
	}
	b = append(b, asserts...)
	b = append(b, changesClose...)
	s.buf = b
	r, err := applyChanges(c, s.id, batch{body: b, n: n + 3*arrivals})
	if err != nil {
		return reply{}, err
	}
	if len(r.Tags) != 3*arrivals {
		return reply{}, fmt.Errorf("session %s: %d tags for %d asserts", s.id, len(r.Tags), 3*arrivals)
	}
	s.tags[s.ops%s.lag] = r.Tags
	s.ops++
	return reply{r.WMSize, r.ConflictSize}, nil
}

type bulkDrv struct {
	program []byte
	workers int
	slots   [][]byte
	oracleS [][]byte
	sess    bulkSession
	memo    memo
}

func newBulk(src string, seed int64, nproc int) *bulkDrv {
	rng := newRand(seed, 2)
	d := &bulkDrv{
		program: jsonString(src),
		workers: nproc,
		sess:    bulkSession{id: "bulk", lag: bulkLag, tags: make([][]int, bulkLag)},
	}
	for s := 0; s < bulkSlots; s++ {
		d.slots = append(d.slots, dispatchArrivals(rng, 1+s*bulkArrivals, bulkArrivals))
	}
	for s := 0; s < bulkOracleOps; s++ {
		d.oracleS = append(d.oracleS, dispatchArrivals(rng, 1+s*bulkOracleArrive, bulkOracleArrive))
	}
	return d
}

func (d *bulkDrv) oracle(c Caller) error {
	return runOracle("parallel-rete", func(id, matcher string) ([]reply, error) {
		if _, err := createSession(c, id, d.program, matcher, d.workers); err != nil {
			return nil, err
		}
		s := bulkSession{id: id, lag: bulkOracleLag, tags: make([][]int, bulkOracleLag)}
		var out []reply
		for _, asserts := range d.oracleS {
			r, err := s.step(c, asserts, bulkOracleArrive)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		return out, deleteSession(c, id)
	})
}

func (d *bulkDrv) prepare(c Caller) error {
	if _, err := createSession(c, d.sess.id, d.program, "parallel-rete", d.workers); err != nil {
		return err
	}
	return warmUp(c, d, 1, func(int) int { return bulkWarmupOps })
}

func (d *bulkDrv) op(c Caller, _ int) (int, error) {
	i := d.sess.ops
	r, err := d.sess.step(c, d.slots[i%bulkSlots], bulkArrivals)
	if err != nil {
		return 0, err
	}
	if want := min(i+1, bulkLag) * 3 * bulkArrivals; r[0] != want {
		return 0, fmt.Errorf("bulk request %d: wm_size %d, want %d", i, r[0], want)
	}
	if i < bulkLag {
		return 0, nil // working memory still filling; replies do not repeat yet
	}
	return 0, d.memo.check("bulk slot", i%bulkSlots, r)
}

func (d *bulkDrv) sessions(int) []string { return []string{d.sess.id} }

// ---------------------------------------------------------------- chatter

const (
	chatterSessions = 64
	// chatterLive is how many readings a session keeps: a request
	// retracts the reading asserted chatterLive asserts earlier.
	chatterLive     = 4
	chatterRunEvery = 8 // every eighth request of a session is a /run
	chatterRunBody  = `{"cycles":4}`
	// chatterReadingPool is the cycle of distinct readings. A session
	// wraps around after this many asserts, far beyond one run.
	chatterReadingPool = 8192
	chatterWarmupOps   = 16 // per session
	chatterOracleOps   = 48
)

// chatterSession is the client state of one chatter session.
type chatterSession struct {
	id      string
	ops     int
	asserts int
	tags    [chatterLive]int
}

type chatterDrv struct {
	program  []byte
	clients  int
	limits   batch
	readings [][]byte
	sess     []chatterSession
	next     []int    // per client: operations run so far
	bufs     [][]byte // per client: request body scratch
	memo     memo
}

func newChatter(src string, seed int64, clients int) *chatterDrv {
	rng := newRand(seed, 3)
	d := &chatterDrv{
		program:  jsonString(src),
		clients:  clients,
		limits:   chatterLimits(rng),
		readings: chatterReadings(rng, chatterReadingPool),
		sess:     make([]chatterSession, chatterSessions),
		next:     make([]int, clients),
		bufs:     make([][]byte, clients),
	}
	for i := range d.sess {
		d.sess[i].id = fmt.Sprintf("ch-%02d", i)
	}
	return d
}

// step sends the session's next request — one assert plus one retract,
// or every chatterRunEvery-th time a bounded /run. Every session gets
// the same stream, so replies are checked against the first session to
// reach each position.
func (d *chatterDrv) step(c Caller, s *chatterSession, buf *[]byte) (reply, error) {
	k := s.ops
	s.ops++
	if k%chatterRunEvery == chatterRunEvery-1 {
		r, err := runCycles(c, s.id, chatterRunBody)
		return reply{r.Cycles, r.Fired, r.WMSize, r.ConflictSize}, err
	}
	b := append((*buf)[:0], changesOpen...)
	n := 1
	if s.asserts >= chatterLive {
		b = appendRetract(b, s.tags[s.asserts%chatterLive])
		b = append(b, ',')
		n = 2
	}
	b = append(b, d.readings[s.asserts%chatterReadingPool]...)
	b = append(b, changesClose...)
	*buf = b
	r, err := applyChanges(c, s.id, batch{body: b, n: n})
	if err != nil {
		return reply{}, err
	}
	if len(r.Tags) != 1 {
		return reply{}, fmt.Errorf("session %s: %d tags for one assert", s.id, len(r.Tags))
	}
	s.tags[s.asserts%chatterLive] = r.Tags[0]
	s.asserts++
	return reply{r.Tags[0], r.WMSize, r.ConflictSize}, nil
}

func (d *chatterDrv) create(c Caller, id, matcher string) error {
	if _, err := createSession(c, id, d.program, matcher, 0); err != nil {
		return err
	}
	_, err := applyChanges(c, id, d.limits)
	return err
}

func (d *chatterDrv) oracle(c Caller) error {
	return runOracle("rete", func(id, matcher string) ([]reply, error) {
		if err := d.create(c, id, matcher); err != nil {
			return nil, err
		}
		s := chatterSession{id: id}
		var buf []byte
		var out []reply
		for i := 0; i < chatterOracleOps; i++ {
			r, err := d.step(c, &s, &buf)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		return out, deleteSession(c, id)
	})
}

func (d *chatterDrv) prepare(c Caller) error {
	for i := range d.sess {
		if err := d.create(c, d.sess[i].id, "rete"); err != nil {
			return err
		}
	}
	return warmUp(c, d, d.clients, func(cl int) int { return chatterWarmupOps * d.ownedCount(cl) })
}

// owned returns the index of the j-th session of a client: sessions are
// dealt round-robin.
func (d *chatterDrv) owned(client, j int) int { return client + j*d.clients }

func (d *chatterDrv) ownedCount(client int) int {
	return (chatterSessions - client + d.clients - 1) / d.clients
}

func (d *chatterDrv) op(c Caller, client int) (int, error) {
	i := d.next[client]
	d.next[client]++
	s := &d.sess[d.owned(client, i%d.ownedCount(client))]
	k := s.ops
	r, err := d.step(c, s, &d.bufs[client])
	if err != nil {
		return 0, err
	}
	return 0, d.memo.check("chatter request", k, r)
}

func (d *chatterDrv) sessions(client int) []string {
	var ids []string
	for j := 0; j < d.ownedCount(client); j++ {
		ids = append(ids, d.sess[d.owned(client, j)].id)
	}
	return ids
}

// ---------------------------------------------------------------- stream

const (
	streamSessionsPerClient = 4
	streamChunkEvents       = 256
	streamWarmupChunks      = 4 // per session: fills the 20-tick window several times over
	streamOracleChunks      = 2
	streamOracleEvents      = 96
)

type streamDrv struct {
	program []byte
	clients int
	ids     []string
	sent    []int // per session: chunks sent so far
	next    []int // per client: operations run so far
	oracleC [][]byte
	memo    memo

	mu     sync.Mutex // guards gen and chunks: sessions share one stream
	gen    fraudStream
	chunks [][]byte
}

func newStream(src string, seed int64, clients int) *streamDrv {
	d := &streamDrv{
		program: jsonString(src),
		clients: clients,
		sent:    make([]int, clients*streamSessionsPerClient),
		next:    make([]int, clients),
		gen:     fraudStream{rng: newRand(seed, 4)},
	}
	for i := range d.sent {
		d.ids = append(d.ids, fmt.Sprintf("fr-%d-%d", i/streamSessionsPerClient, i%streamSessionsPerClient))
	}
	og := fraudStream{rng: newRand(seed, 5)}
	for i := 0; i < streamOracleChunks; i++ {
		d.oracleC = append(d.oracleC, og.chunk(streamOracleEvents))
	}
	return d
}

// chunk returns the k-th chunk of the shared stream, generating the
// stream as far as needed.
func (d *streamDrv) chunk(k int) []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(d.chunks) <= k {
		d.chunks = append(d.chunks, d.gen.chunk(streamChunkEvents))
	}
	return d.chunks[k]
}

// send posts one NDJSON chunk and checks every line was applied.
func sendChunk(c Caller, id string, chunk []byte, events int) (reply, error) {
	var r streamReply
	err := call(c, Request{Method: "POST", Path: sessionsPath + "/" + id + "/stream",
		ContentType: "application/x-ndjson", Body: chunk}, 200, &r)
	if err != nil {
		return reply{}, err
	}
	if r.Events != events {
		return reply{}, fmt.Errorf("session %s: %d events applied, %d lines sent", id, r.Events, events)
	}
	return reply{r.Fired, r.Expired, r.Clock, r.WMSize, r.ConflictSize}, nil
}

func (d *streamDrv) oracle(c Caller) error {
	return runOracle("rete", func(id, matcher string) ([]reply, error) {
		if _, err := createSession(c, id, d.program, matcher, 0); err != nil {
			return nil, err
		}
		var out []reply
		for _, chunk := range d.oracleC {
			r, err := sendChunk(c, id, chunk, streamOracleEvents)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		return out, deleteSession(c, id)
	})
}

func (d *streamDrv) prepare(c Caller) error {
	for _, id := range d.ids {
		if _, err := createSession(c, id, d.program, "rete", 0); err != nil {
			return err
		}
	}
	return warmUp(c, d, d.clients, func(int) int { return streamWarmupChunks * streamSessionsPerClient })
}

func (d *streamDrv) op(c Caller, client int) (int, error) {
	i := d.next[client]
	d.next[client]++
	s := client*streamSessionsPerClient + i%streamSessionsPerClient
	k := d.sent[s]
	d.sent[s]++
	r, err := sendChunk(c, d.ids[s], d.chunk(k), streamChunkEvents)
	if err != nil {
		return 0, err
	}
	return 0, d.memo.check("stream chunk", k, r)
}

func (d *streamDrv) sessions(client int) []string {
	return d.ids[client*streamSessionsPerClient : (client+1)*streamSessionsPerClient]
}
