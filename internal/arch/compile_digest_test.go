package arch

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"openoptics"
	"openoptics/internal/traffic"
)

// goldenDigests pins every compiled time-flow table the arch builders
// install. Each line is "<case> <sha256> <entries>". A change to routing
// generation, table compilation or install that moves a single entry,
// action, weight or source route fails here.
const goldenDigests = "../../testdata/compile/digests.txt"

// tableDigest hashes every switch's table in Entries() order: priority,
// match, mode, then each action's egress, departure slice, weight bits
// and source route.
func tableDigest(n *openoptics.Net) (string, int) {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	total := 0
	for _, sw := range n.Switches() {
		put(uint64(sw.ID()))
		es := sw.Table().Entries()
		total += len(es)
		put(uint64(len(es)))
		for _, e := range es {
			put(uint64(e.Priority))
			put(uint64(e.Match.ArrSlice))
			put(uint64(e.Match.Src))
			put(uint64(e.Match.Dst))
			put(uint64(e.Mode))
			put(uint64(len(e.Actions)))
			for _, a := range e.Actions {
				put(uint64(a.Egress))
				put(uint64(a.DepSlice))
				put(math.Float64bits(a.Weight))
				put(uint64(len(a.SourceRoute)))
				for _, hop := range a.SourceRoute {
					put(uint64(hop.Egress))
					put(uint64(hop.DepSlice))
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), total
}

// hotPairRun drives an instance with the rpc trace at load 0.3, half the
// flows on two hot pairs, for d of virtual time, control loop included.
func hotPairRun(t *testing.T, in *Instance, d time.Duration) {
	t.Helper()
	cdf, err := traffic.ByName("rpc")
	if err != nil {
		t.Fatal(err)
	}
	eps := in.Net.Endpoints()
	traffic.NewSink(eps)
	rp, err := traffic.NewReplay(in.Net.Engine(), eps, cdf, 0.3,
		int64(in.Net.Cfg.LineRateGbps*1e9), 7)
	if err != nil {
		t.Fatal(err)
	}
	rp.HotFrac = 0.5
	rp.HotPairs = 2
	rp.Start(int64(d))
	if err := in.Run(d); err != nil {
		t.Fatal(err)
	}
}

type digestCase struct {
	name  string
	large bool // 64 ToRs: skipped under -race
	build func() (*Instance, error)
	run   time.Duration // hot-pair traffic before digesting; 0 = digest at build
}

func digestCases() []digestCase {
	o16 := Options{Nodes: 16, Seed: 11}
	o64 := Options{Nodes: 64, Seed: 11}
	rotor := func(o Options, s Scheme) func() (*Instance, error) {
		return func() (*Instance, error) { return RotorNet(o, s) }
	}
	u2 := o16
	u2.Uplink = 2
	ta := o16
	ta.ReconfigureEvery = 5 * time.Millisecond
	return []digestCase{
		{name: "clos-16", build: func() (*Instance, error) { return Clos(o16) }},
		{name: "c-through-16", build: func() (*Instance, error) { return CThrough(o16) }},
		{name: "c-through-16-run", build: func() (*Instance, error) { return CThrough(ta) }, run: 6 * time.Millisecond},
		{name: "jupiter-16", build: func() (*Instance, error) { return Jupiter(o16) }},
		{name: "mordia-16", build: func() (*Instance, error) { return Mordia(o16) }},
		{name: "mordia-16-run", build: func() (*Instance, error) { return Mordia(ta) }, run: 6 * time.Millisecond},
		{name: "rotornet-vlb-16", build: rotor(o16, SchemeVLB)},
		{name: "rotornet-direct-16", build: rotor(o16, SchemeDirect)},
		{name: "rotornet-ucmp-16", build: rotor(o16, SchemeUCMP)},
		{name: "rotornet-hoho-16", build: rotor(o16, SchemeHOHO)},
		{name: "rotornet-vlb-16-u2", build: rotor(u2, SchemeVLB)},
		{name: "rotornet-ucmp-16-u2", build: rotor(u2, SchemeUCMP)},
		{name: "opera-16", build: func() (*Instance, error) { return Opera(o16) }},
		{name: "shale-2d-16", build: func() (*Instance, error) { return Shale(o16, 2) }},
		{name: "semi-oblivious-16", build: func() (*Instance, error) { return SemiOblivious(o16) }},
		{name: "semi-oblivious-16-run", build: func() (*Instance, error) { return SemiOblivious(ta) }, run: 6 * time.Millisecond},
		{name: "daware-16", build: func() (*Instance, error) { return DemandAware(o16, DemandConfig{}) }},
		{name: "daware-12-run", build: func() (*Instance, error) {
			return DemandAware(Options{Nodes: 12, Seed: 11}, DemandConfig{DrainNs: 5000})
		}, run: 10 * time.Millisecond},
		{name: "rotornet-vlb-64", large: true, build: rotor(o64, SchemeVLB)},
		{name: "rotornet-hoho-64", large: true, build: rotor(o64, SchemeHOHO)},
	}
}

// loadGoldens reads a "<case> <rest>" golden file into a map.
func loadGoldens(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		out[name] = rest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCompiledTableDigests rebuilds every architecture and compares the
// digest of its installed tables with the committed golden.
func TestCompiledTableDigests(t *testing.T) {
	golden := loadGoldens(t, goldenDigests)
	for _, c := range digestCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if c.large && (raceEnabled || testing.Short()) {
				t.Skip("64-ToR compile skipped under -race and -short")
			}
			in, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			if c.run > 0 {
				hotPairRun(t, in, c.run)
			}
			sum, entries := tableDigest(in.Net)
			got := sum + " " + strconv.Itoa(entries)
			want, ok := golden[c.name]
			if !ok {
				t.Fatalf("no golden for %s; computed line:\n%s %s", c.name, c.name, got)
			}
			if got != want {
				t.Fatalf("compiled tables moved:\n got %s %s\nwant %s %s", c.name, got, c.name, want)
			}
		})
	}
}

// TestGoldenDigestsCoverCases keeps the golden file and the case list in
// step, so a renamed case cannot silently lose its pin.
func TestGoldenDigestsCoverCases(t *testing.T) {
	golden := loadGoldens(t, goldenDigests)
	names := make(map[string]bool)
	for _, c := range digestCases() {
		names[c.name] = true
	}
	for name := range golden {
		if !names[name] {
			t.Errorf("%s: golden %q has no case", goldenDigests, name)
		}
	}
	if len(golden) != len(names) {
		t.Errorf("%d goldens for %d cases", len(golden), len(names))
	}
}
