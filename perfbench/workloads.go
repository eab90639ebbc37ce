package main

import (
	"fmt"
	"math/rand"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/workload"
)

// baseEvents is how many distinct events the publishers cycle through.
const baseEvents = 4096

// conns is the number of client connections; each both publishes and
// consumes. Fixed rather than derived from the core count so that a
// workload is the same traffic on every machine.
const conns = 2

// connShare splits the open-loop offered rate unevenly between the
// connections: clients of a real broker publish at skewed rates. The
// 65/35 split is an assumption, not a measured or published figure;
// WORKLOADS.md gives its measured effect.
var connShare = [conns]float64{0.65, 0.35}

// Client-scoped subscription ids: static subscriptions use their index
// + 1; probes and churn live in disjoint high ranges so a delivery's
// handler knows which kind it serves.
const (
	probeIDBase uint64 = 1 << 40
	churnIDBase uint64 = 1 << 41
)

// spec is one workload: the subscription population, the event stream,
// the durability mode and the load shape. Rates are fixed here, not
// measured, so that the open-loop phase offers the same load to every
// commit: about a quarter of the closed-loop capacity on the 2-vCPU box
// the benchmark was written on. WORKLOADS.md says where each load-shape
// value comes from: the windows from a sweep, the churn figures as
// assumptions with their measured effect.
type spec struct {
	name      string
	why       string
	gen       workload.Params
	subs      int
	durable   bool
	repl      bool
	probes    []int   // owning connection of each probe subscription
	window    int     // closed-loop in-flight events per connection
	rate      float64 // open-loop offered events/s, all connections
	churn     float64 // churn subscribes per second per connection
	churnLive int     // churn subscriptions each connection keeps live
}

func specs() []spec {
	def := workload.Default()

	fan := workload.Default()
	fan.NumAttrs = 24
	fan.Cardinality = 16
	fan.PredsMin, fan.PredsMax = 2, 3
	fan.PredPoolSize = 0
	fan.WEquality, fan.WRange, fan.WMembership = 0.6, 0.2, 0.2
	fan.RangeWidthFrac = 0.25
	fan.EventAttrs = 12
	fan.MatchFraction = 0.8

	return []spec{
		{
			name: "match-heavy",
			why:  "100k BEGen subscriptions, 1% planted events, log off: the matcher dominates, directly and as most of the read loop's time that ingress queues behind",
			gen:  def, subs: 100_000,
			probes: []int{0}, window: 16, rate: 7500, churn: 100, churnLive: 16,
		},
		{
			name: "fanout-churn",
			why:  "2k subscriptions in a small value space: each event fans out on both connections, with subscribe churn beside the publishes",
			gen:  fan, subs: 2_000,
			probes: []int{0}, window: 32, rate: 5500, churn: 400, churnLive: 64,
		},
		{
			name: "durable",
			why:  "10k subscriptions, both connections durable consumers with a probe each: two serial log appends per publish",
			gen:  def, subs: 10_000, durable: true,
			probes: []int{0, 1}, window: 32, rate: 6500, churn: 100, churnLive: 16,
		},
		{
			name: "durable-repl",
			why:  "durable plus an in-process follower with ReplSync: replication ship, follower ingest and ack wait",
			gen:  def, subs: 10_000, durable: true, repl: true,
			probes: []int{0, 1}, window: 32, rate: 135, churn: 100, churnLive: 16,
		},
	}
}

func findSpec(name string) (spec, error) {
	for _, s := range specs() {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// inputs is everything generated from the seed before set-up: the
// subscriptions, the events and the reference deliveries.
type inputs struct {
	seqAttr   expr.AttrID
	subs      []*expr.Expression // static; subs[i] belongs to connection i%conns
	probes    []*expr.Expression
	churn     []*expr.Expression // pool cycled by the churn goroutines
	basePairs [][]expr.Pair      // event attributes without the sequence number
	want      []int32            // expected static+probe deliveries per base event
	wantHash  []uint64           // sum of mix64(key) over those deliveries
}

// subKey identifies a (connection, client subscription id) pair in the
// delivery digests.
func subKey(conn int, clientID uint64) uint64 {
	return mix64(uint64(conn)<<56 ^ clientID)
}

// baseOf maps a publication's sequence number to the base event it
// carries; scrambled so that both connections cycle every base event.
func (in *inputs) baseOf(seq int64) int {
	return int(mix64(uint64(seq)) % uint64(len(in.basePairs)))
}

// event builds the published event: the base event plus the sequence
// number in the spare attribute the probes match.
func (in *inputs) event(scratch *[]expr.Pair, seq int64) (*expr.Event, error) {
	ps := append((*scratch)[:0], in.basePairs[in.baseOf(seq)]...)
	ps = append(ps, expr.Pair{Attr: in.seqAttr, Val: expr.Value(seq)})
	*scratch = ps
	return expr.NewEvent(ps...)
}

func genInputs(sp spec, seed int64) (*inputs, error) {
	p := sp.gen
	p.Seed = seed
	g, err := workload.New(p)
	if err != nil {
		return nil, err
	}
	in := &inputs{seqAttr: expr.AttrID(p.NumAttrs)}
	in.subs = g.Expressions(sp.subs)
	for i, x := range in.subs {
		x.ID = expr.ID(i + 1)
	}
	for j := range sp.probes {
		in.probes = append(in.probes, expr.MustNew(expr.ID(probeIDBase+uint64(j)), expr.Ge(in.seqAttr, 0)))
	}
	for _, ev := range g.Events(baseEvents) {
		in.basePairs = append(in.basePairs, ev.Pairs())
	}
	// Drawn after the events, so no event is planted from a churn
	// subscription: churn deliveries are incidental, not designed.
	in.churn = g.Expressions(2048)
	return in, in.computeOracle(sp)
}

// computeOracle derives the expected deliveries of every base event
// with the Counting algorithm, not A-PCM, so a defect in the A-PCM
// kernels cannot agree with itself.
func (in *inputs) computeOracle(sp spec) error {
	ref, err := apcm.New(apcm.Options{Algorithm: apcm.Counting, Workers: 1})
	if err != nil {
		return err
	}
	defer ref.Close()
	keys := make(map[expr.ID]uint64, len(in.subs)+len(in.probes))
	add := func(x *expr.Expression, key uint64) error {
		id := expr.ID(len(keys) + 1)
		keys[id] = key
		return ref.Subscribe(&expr.Expression{ID: id, Preds: x.Preds})
	}
	for i, x := range in.subs {
		if err := add(x, subKey(i%conns, uint64(x.ID))); err != nil {
			return fmt.Errorf("oracle subscribe %d: %w", i, err)
		}
	}
	for j, x := range in.probes {
		if err := add(x, subKey(sp.probes[j], uint64(x.ID))); err != nil {
			return fmt.Errorf("oracle probe %d: %w", j, err)
		}
	}
	in.want = make([]int32, len(in.basePairs))
	in.wantHash = make([]uint64, len(in.basePairs))
	for b, pairs := range in.basePairs {
		ev, err := expr.NewEvent(append(append([]expr.Pair(nil), pairs...), expr.Pair{Attr: in.seqAttr, Val: 0})...)
		if err != nil {
			return err
		}
		for _, id := range ref.Match(ev) {
			in.want[b]++
			in.wantHash[b] += keys[id]
		}
	}
	return nil
}

// arrivals is the open-loop schedule of one connection: due times in
// nanoseconds from the phase start, Gamma(0.5) inter-arrivals (bursty,
// coefficient of variation √2) at the connection's share of the rate.
// The shape is an assumption; WORKLOADS.md gives its measured effect.
func arrivals(seed int64, conn int, rate float64, dur int64) []int64 {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(conn)))
	const shape = 0.5
	meanGap := 1e9 / (rate * connShare[conn])
	var out []int64
	for t := 0.0; ; {
		t += gamma(r, shape) / shape * meanGap
		if int64(t) >= dur {
			return out
		}
		out = append(out, int64(t))
	}
}
