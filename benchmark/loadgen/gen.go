package loadgen

// Input generators. Every byte psmd receives is made here from the
// seed: the same seed yields the same request bodies, a different seed
// yields different ones drawn from the same distribution. Bodies are
// appended by hand rather than through encoding/json, so the generator
// costs the load generator — which shares the machine with psmd — as
// little CPU as possible, and so the byte layout is fixed by this file
// alone.

import (
	"math/rand"
	"strconv"
)

// batch is one POST /changes body and the number of changes in it.
type batch struct {
	body []byte
	n    int
}

// newRand derives an independent stream for one generator from the run
// seed; salt keeps the workloads' streams apart.
func newRand(seed int64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + salt))
}

// appendAssert appends one assert change. kv alternates attribute
// names with values; a string value is an OPS5 symbol, an int a number.
// Symbols are generated identifiers and need no JSON escaping.
func appendAssert(b []byte, class string, kv ...any) []byte {
	b = append(b, `{"op":"assert","class":"`...)
	b = append(b, class...)
	b = append(b, `","attrs":`...)
	b = appendAttrs(b, kv)
	return append(b, '}')
}

func appendAttrs(b []byte, kv []any) []byte {
	b = append(b, '{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, kv[i].(string)...)
		b = append(b, `":`...)
		switch v := kv[i+1].(type) {
		case string:
			b = append(b, '"')
			b = append(b, v...)
			b = append(b, '"')
		case int:
			b = strconv.AppendInt(b, int64(v), 10)
		}
	}
	return append(b, '}')
}

// appendRetract appends one retract change.
func appendRetract(b []byte, tag int) []byte {
	b = append(b, `{"op":"retract","tag":`...)
	b = strconv.AppendInt(b, int64(tag), 10)
	return append(b, '}')
}

const (
	changesOpen  = `{"changes":[`
	changesClose = `]}`
)

// changesBody wraps comma-separated change fragments into one body.
func changesBody(frags ...[]byte) []byte {
	b := []byte(changesOpen)
	for i, f := range frags {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, f...)
	}
	return append(b, changesClose...)
}

// sym formats a generated symbol such as "s3" or "guest12".
func sym(prefix string, n int) string { return prefix + strconv.Itoa(n) }

// mannersBatchSize is how many asserts one Miss Manners /changes
// request carries.
const mannersBatchSize = 64

// mannersInstance generates one Miss Manners problem — guests of
// alternating sex, each with two of three hobbies, then the count,
// last-seat and context elements that start the program — as /changes
// bodies of at most mannersBatchSize asserts.
func mannersInstance(rng *rand.Rand, guests int) []batch {
	var frags [][]byte
	for g := 0; g < guests; g++ {
		sex := "m"
		if g%2 == 1 {
			sex = "f"
		}
		for _, h := range rng.Perm(3)[:2] {
			frags = append(frags, appendAssert(nil, "guest",
				"name", sym("guest", g+1), "sex", sex, "hobby", sym("h", h+1)))
		}
	}
	frags = append(frags,
		appendAssert(nil, "count", "c", 1),
		appendAssert(nil, "last-seat", "seat", guests),
		appendAssert(nil, "context", "state", "start"))
	var out []batch
	for len(frags) > 0 {
		n := min(len(frags), mannersBatchSize)
		out = append(out, batch{body: changesBody(frags[:n]...), n: n})
		frags = frags[n:]
	}
	return out
}

// dispatchArrivals generates the assert fragments of one bulk_prete
// request: arrivals jobs at random stations, each with its part and its
// slot (three elements per arrival). firstJob numbers the jobs so that
// no two live arrivals share an id.
func dispatchArrivals(rng *rand.Rand, firstJob, arrivals int) []byte {
	var b []byte
	for a := 0; a < arrivals; a++ {
		job := firstJob + a
		station := sym("s", rng.Intn(10))
		if a > 0 {
			b = append(b, ',')
		}
		b = appendAssert(b, "job", "id", job, "station", station,
			"kind", sym("k", rng.Intn(5)), "prio", 1+rng.Intn(9))
		b = append(b, ',')
		b = appendAssert(b, "part", "job", job, "station", station,
			"type", sym("t", rng.Intn(6)), "qty", 1+rng.Intn(20))
		b = append(b, ',')
		b = appendAssert(b, "slot", "job", job, "station", station,
			"lane", sym("l", rng.Intn(4)), "cap", 1+rng.Intn(20))
	}
	return b
}

// chatterSensors is the sensor population of one chatter session.
const chatterSensors = 16

// chatterLimits generates the preload of a chatter session: one limit
// per sensor, between 80 and 95, so about one reading in eight
// breaches its limit.
func chatterLimits(rng *rand.Rand) batch {
	var frags [][]byte
	for s := 0; s < chatterSensors; s++ {
		frags = append(frags, appendAssert(nil, "limit",
			"sensor", sym("n", s), "max", 80+rng.Intn(16)))
	}
	return batch{body: changesBody(frags...), n: len(frags)}
}

// chatterReadings generates n reading asserts: a random sensor, a value
// in 0..99, and the reading's own index as ^seq.
func chatterReadings(rng *rand.Rand, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = appendAssert(nil, "reading",
			"sensor", sym("n", rng.Intn(chatterSensors)), "value", rng.Intn(100), "seq", i)
	}
	return out
}

// Fraud stream shape: the card population, the window (each txn's TTL
// in ticks) and how many txns share one tick.
const (
	fraudCards       = 50
	fraudWindow      = 20
	fraudTxnsPerTick = 4
)

// fraudStream generates the transaction stream of the stream_fraud
// workload as successive NDJSON chunks. Background traffic spreads over
// the card population; every fortieth draw starts a burst of three or
// four transactions on one card, which lands inside the window and
// trips the velocity rule; about 4% of amounts exceed the large-amount
// threshold. Ids and timestamps keep growing from chunk to chunk, so
// the window slides.
type fraudStream struct {
	rng       *rand.Rand
	events    int // transactions generated so far
	draws     int
	burstLeft int
	burstCard int
}

// chunk generates the next n transactions, one JSON object per line.
func (f *fraudStream) chunk(n int) []byte {
	var b []byte
	for i := 0; i < n; i++ {
		card := f.burstCard
		if f.burstLeft > 0 {
			f.burstLeft--
		} else {
			f.draws++
			card = f.rng.Intn(fraudCards)
			if f.draws%40 == 0 {
				f.burstCard, f.burstLeft = card, 2+f.rng.Intn(2)
			}
		}
		amount := 1 + f.rng.Intn(500)
		if f.rng.Intn(25) == 0 {
			amount = 901 + f.rng.Intn(1100)
		}
		b = append(b, `{"class":"txn","attrs":`...)
		b = appendAttrs(b, []any{"card", sym("c", card), "amount", amount, "id", f.events})
		b = append(b, `,"ts":`...)
		b = strconv.AppendInt(b, int64(f.events/fraudTxnsPerTick+1), 10)
		b = append(b, `,"ttl":`...)
		b = strconv.AppendInt(b, fraudWindow, 10)
		b = append(b, "}\n"...)
		f.events++
	}
	return b
}
