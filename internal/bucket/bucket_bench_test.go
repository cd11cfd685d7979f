package bucket_test

import (
	"testing"

	"repro/internal/bucket"
)

// The memory layer's own budget (ROADMAP item 1a): what one Buckets
// operation costs at a beta memory's working size, with keys shaped like
// the matcher's (already hashes, mostly one entry per chain).

const benchKeys = 4096

func benchKey(i int) uint64 { return uint64(i+1) * 0x9e3779b97f4a7c15 }

func filledBuckets() *bucket.Buckets[int32] {
	var b bucket.Buckets[int32]
	for i := 0; i < benchKeys; i++ {
		b.Add(benchKey(i), int32(i))
	}
	return &b
}

// BenchmarkBucketsAdd is one insert into a table at size plus the
// removal that keeps it there.
func BenchmarkBucketsAdd(b *testing.B) {
	t := filledBuckets()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := benchKey(benchKeys + i%benchKeys)
		t.Unlink(k, -1, t.Add(k, 1))
	}
}

// BenchmarkBucketsHead probes present and absent keys alternately.
func BenchmarkBucketsHead(b *testing.B) {
	t := filledBuckets()
	b.ReportAllocs()
	b.ResetTimer()
	var sink int32
	for i := 0; i < b.N; i++ {
		sink += t.Head(benchKey(i % (2 * benchKeys)))
	}
	benchSink = sink
}

// BenchmarkBucketsUnlink is the delete path as the matcher runs it:
// find the chain, unlink its only entry, put it back.
func BenchmarkBucketsUnlink(b *testing.B) {
	t := filledBuckets()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := benchKey(i % benchKeys)
		t.Unlink(k, -1, t.Head(k))
		t.Add(k, 1)
	}
}

var benchSink int32
