package campaign

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"liteworp"
)

// BenchmarkCampaign compares sequential and pooled wall-clock time over a
// fixed seed set. The per-iteration simulated work is identical, so the
// workers=1/workers=GOMAXPROCS time ratio is the fan-out speedup.
func BenchmarkCampaign(b *testing.B) {
	jobs := make([]Job, 8)
	for i := range jobs {
		p := liteworp.DefaultParams()
		p.Seed = int64(300 + i)
		p.NumNodes = 40
		p.Duration = 150 * time.Second
		p.NumMalicious = 2
		p.Attack = liteworp.AttackOutOfBand
		jobs[i] = Job{Key: fmt.Sprintf("bench/run=%d", i), Params: p}
	}
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				err := Run(jobs, Options{Workers: w}, func(int, Job, *liteworp.Results) error { return nil })
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
