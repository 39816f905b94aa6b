package graphio

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"msc/internal/gen/rgg"
	"msc/internal/pairs"
	"msc/internal/xrand"
)

// benchInstance is an n = 2·10⁴ random geometric instance in the shape
// mscgen writes (coords, canonical edges, pairs, threshold, budget),
// rendered once by WriteJSONStream.
var benchInstance = sync.OnceValues(func() ([]byte, error) {
	const n = 20000
	g, err := rgg.Generate(rgg.Config{
		N:                n,
		Radius:           1.6 * math.Sqrt(math.Log(n)/(math.Pi*n)),
		FailureAtRadius:  0.08,
		RequireConnected: true,
	}, xrand.New(1))
	if err != nil {
		return nil, err
	}
	ps := make([]pairs.Pair, 64)
	for i := range ps {
		ps[i] = pairs.Pair{U: int32(i), W: int32(n - 1 - i)}
	}
	var buf bytes.Buffer
	err = WriteJSONStream(&buf, g, pairs.MustNewSet(n, ps), 0.11, 6)
	return buf.Bytes(), err
})

// BenchmarkReadJSON decodes and validates the instance; bytes/s is the
// decode throughput.
func BenchmarkReadJSON(b *testing.B) {
	data, err := benchInstance()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadJSON(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDocumentGraph builds the graph of the decoded instance:
// Validate, the length conversion and graph.Builder.
func BenchmarkDocumentGraph(b *testing.B) {
	data, err := benchInstance()
	if err != nil {
		b.Fatal(err)
	}
	doc, err := ReadJSON(bytes.NewReader(data))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := doc.Graph(); err != nil {
			b.Fatal(err)
		}
	}
}
