// Command streaming demonstrates the event-ingest path: TTL'd event
// facts streamed as NDJSON into POST /v1/sessions/{id}/stream, windowed
// joins firing as bursts land inside the TTL window, and the engine's
// logical clock expiring events (and the alerts they raised) as the
// stream moves on. It drives one of the two windowed-join packs —
// fraud-detection velocity checks or monitoring threshold breaches —
// from internal/workload, honouring the endpoint's backpressure
// contract (429 + Retry-After) when the session falls behind.
//
// Usage examples:
//
//	streaming                       # in-process server, fraud pack
//	streaming -pack monitor -events 5000
//	streaming -addr localhost:8080  # against a running psmd
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/server"
	"repro/internal/workload"
)

func main() {
	addr := flag.String("addr", "", "psmd address (host:port); empty starts an in-process server")
	pack := flag.String("pack", "fraud", "rule pack: fraud or monitor")
	events := flag.Int("events", 2000, "events to stream")
	batch := flag.Int("batch", 250, "events per POST (one NDJSON body)")
	matcher := flag.String("matcher", "", "matcher (rete, parallel-rete, ...; empty = server default)")
	flag.Parse()

	base := "http://" + *addr
	if *addr == "" {
		srv := server.New(server.Config{})
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		base = ts.URL
		fmt.Printf("in-process server at %s\n", base)
	}
	api := base + server.APIVersion

	var program, alertClass string
	var evs []workload.Event
	switch *pack {
	case "fraud":
		program, alertClass = workload.FraudRules, "alert"
		p := workload.DefaultFraudParams()
		p.Events = *events
		evs = workload.FraudEvents(p)
		fmt.Printf("fraud pack: %d txns over %d cards, velocity window %d ticks\n",
			p.Events, p.Cards, p.Window)
	case "monitor":
		program, alertClass = workload.MonitorRules, "alert"
		p := workload.DefaultMonitorParams()
		p.Events = *events
		evs = workload.MonitorEvents(p)
		fmt.Printf("monitor pack: %d samples over %d hosts, sustain window %d ticks\n",
			p.Events, p.Hosts, p.Window)
	default:
		fmt.Fprintf(os.Stderr, "streaming: unknown pack %q\n", *pack)
		os.Exit(2)
	}

	const id = "stream-demo"
	create, err := json.Marshal(server.CreateSpec{ID: id, Program: program, Matcher: *matcher})
	if err != nil {
		fatal(err)
	}
	resp, err := http.Post(api+"/sessions", "application/json", bytes.NewReader(create))
	if err != nil {
		fatal(err)
	}
	drain(resp)
	if resp.StatusCode != http.StatusCreated {
		fatal(fmt.Errorf("create session: %s", resp.Status))
	}

	t0 := time.Now()
	var applied, fired, expired int
	for start := 0; start < len(evs); start += *batch {
		end := min(start+*batch, len(evs))
		res := stream(api, id, workload.NDJSON(evs[start:end]))
		applied += res.Events
		fired += res.Fired
		expired += res.Expired
		fmt.Printf("batch %3d: %4d events  clock %5d  fired %4d  expired %4d  wm %5d  alerts %d\n",
			start / *batch, res.Events, res.Clock, res.Fired, res.Expired,
			res.WMSize, countClass(api, id, alertClass))
	}
	sec := time.Since(t0).Seconds()
	fmt.Printf("\n%d events in %.2fs (%.0f events/s), %d firings, %d expiries\n",
		applied, sec, float64(applied)/sec, fired, expired)
	fmt.Println("\ndaemon stream counters:")
	echoMetrics(base, "psmd_stream_", "psmd_expired_")
}

// stream posts one NDJSON batch, sleeping out 429 backpressure
// responses per their Retry-After header.
func stream(api, id string, body []byte) server.StreamResult {
	for {
		resp, err := http.Post(api+"/sessions/"+id+"/stream", "application/x-ndjson",
			bytes.NewReader(body))
		if err != nil {
			fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			fatal(err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			wait := 50 * time.Millisecond
			if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
				wait = time.Duration(s) * time.Second
			}
			fmt.Printf("backpressure: session busy, retrying in %v\n", wait)
			time.Sleep(wait)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			fatal(fmt.Errorf("stream: %s: %s", resp.Status, data))
		}
		var res server.StreamResult
		if err := json.Unmarshal(data, &res); err != nil {
			fatal(err)
		}
		return res
	}
}

// countClass counts live facts of one class via GET .../wm?class=.
func countClass(api, id, class string) int {
	resp, err := http.Get(api + "/sessions/" + id + "/wm?class=" + class)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	var wmes []server.WMEInfo
	if err := json.NewDecoder(resp.Body).Decode(&wmes); err != nil {
		fatal(err)
	}
	return len(wmes)
}

// echoMetrics prints the daemon counters whose names carry any of the
// given prefixes.
func echoMetrics(base string, prefixes ...string) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		for _, p := range prefixes {
			if strings.HasPrefix(line, p) {
				fmt.Println("  " + line)
			}
		}
	}
}

func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "streaming: %v\n", err)
	os.Exit(1)
}
