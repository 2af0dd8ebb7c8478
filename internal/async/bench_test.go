package async

import (
	"math/rand"
	"testing"

	"treeaa/internal/tree"
)

// BenchmarkPipelineRun is the async layer's own number on the bench
// harness's async-sim cell — n=16, t=5 pipelines on path:64 under a seeded
// random scheduler: ns per delivered message next to the usual per-run
// figures (-benchmem gives allocs/run).
func BenchmarkPipelineRun(b *testing.B) {
	tr := tree.NewPath(64)
	n, tc := 16, 5
	inputs := spreadInputs(tr, n)
	deliveries := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms := make([]Machine, n)
		budget := 0
		for p := range ms {
			pipe, err := NewPipeline(tr, n, tc, PartyID(p), inputs[p])
			if err != nil {
				b.Fatal(err)
			}
			ms[p], budget = pipe, pipe.DeliveryBudget()
		}
		res, err := Run(Config{N: n, MaxDeliveries: budget, Scheduler: Random{Rng: rand.New(rand.NewSource(int64(i)))}}, ms)
		if err != nil {
			b.Fatal(err)
		}
		deliveries += res.Deliveries
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(deliveries), "ns/delivery")
	b.ReportMetric(float64(deliveries)/float64(b.N), "deliveries/run")
}
