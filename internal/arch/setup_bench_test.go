package arch

import (
	"fmt"
	"testing"
)

// BenchmarkSetupRotorNetVLB times a full RotorNet+VLB setup — schedule,
// VLB path generation, compile and install — and reports it per emitted
// table entry, the unit setup cost should stay flat in as N grows.
func BenchmarkSetupRotorNetVLB(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			entries := 0
			for i := 0; i < b.N; i++ {
				in, err := RotorNet(Options{Nodes: n, Seed: 7}, SchemeVLB)
				if err != nil {
					b.Fatal(err)
				}
				entries = 0
				for _, sw := range in.Net.Switches() {
					entries += sw.Table().Len()
				}
			}
			b.ReportMetric(float64(entries), "entries")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(entries), "ns/entry")
		})
	}
}
