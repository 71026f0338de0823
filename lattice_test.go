package affinity

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"affinity/internal/baseline"
	"affinity/internal/cluster"
	"affinity/internal/core"
	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/plan"
	"affinity/internal/qcache"
	"affinity/internal/scape"
	"affinity/internal/shard"
	"affinity/internal/sketch"
	"affinity/internal/symex"
	"affinity/internal/timeseries"
)

// The operation lattice (DESIGN.md, "Testing: the operation lattice") pins
// the repo's signature invariant under generated input: a byte string decodes
// into a small window (2 to 8 series of 2 to 24 samples, or a wide one of 24
// to 28 series, more pairs than one kernel block holds) plus a sequence of
// Append / Advance / query / batch / snapshot / repeat operations, and every
// operation is replayed on every cell of the lattice
//
//	backend (core.Engine, 2-shard shard.Coordinator)
//	× Parallelism {1, 2, 8} × result cache {off, on} × sketch {off, on}
//	× epoch reached by {streaming, cold rebuild on the frozen clustering
//	  (DriftBound 0 only), snapshot restore (engines only)},
//
// where the P 2 and P 8 cells refresh their statistics every 2 and 3 epochs
// (Stream.StatsRefreshEvery), so that sequences cross refresh epochs,
// plus one engine and one coordinator that ask every L-measure by Naive at
// every epoch they reach, so their windows' sorted columns are slid at every
// epoch, where the other cells sort a window only when a naive query names an
// order statistic.
//
// Every run of Advances is bracketed by the pin operation: before the run's
// first Advance every engine cell pins its epoch and asks it a fixed set of
// queries by every method, and at the next query, batch or the end of the
// sequence the pinned epoch must answer them again with the same bits before
// the pin is released — "pin, k Advances, query, release", where the
// Advances in between recycle the epochs they retire.  It rides the Advance
// and query operations rather than taking a byte of its own, so the saved
// sequences under testdata/fuzz keep decoding to the operations they were
// saved with.
//
// Every batch is followed by a mixed batch, which takes no byte of its own
// either: the batch's valid items with a MEC item over each item's measure and
// series interleaved, by Auto where the batch asks the index (which answers no
// MEC item), asked in one Batch call of every cell, and again through a pinned
// View of every engine cell, plain and explained.
//
// Every answer must be Float64bits-equal across the lattice, typed errors
// included; on the reference cell (engine, P 1, no cache, no sketch,
// streamed) Naive must equal the scalar per-pair oracle, Affine and Index
// must return the same rows on T- and D-measures, the affine dot product must
// keep Lemma 1 and every fit must be plain SYMEX's least-squares fit; on
// every cell a batch must equal its items asked singly, Auto must equal the
// method Explain reports and Explain's ActualRows the result size, and an
// explained batch's plans the single Explains'; Explain's plan, but for what
// the cache, the sketch and the epoch's history of fills change, must be the
// same on every engine cell.
//
//	go test -run TestOperationLattice -lattice.sequences 10000 .
//
// replays 10⁴ generated sequences; a failure is shrunk to a minimal byte
// string and printed in the fuzz corpus format, ready to be saved under
// testdata/fuzz/FuzzOperationSequence.

var (
	latticeSequences = flag.Int("lattice.sequences", 150, "generated operation sequences TestOperationLattice replays")
	latticeSeed      = flag.Int64("lattice.seed", 1, "seed of the first generated operation sequence")
)

// byteSource decodes a sequence; past the end every read is zero, the
// simplest choice, which is what lets a shrinker delete bytes.
type byteSource struct {
	data []byte
	pos  int
}

func (s *byteSource) next() byte {
	if s.pos >= len(s.data) {
		return 0
	}
	s.pos++
	return s.data[s.pos-1]
}

func (s *byteSource) intn(n int) int { return int(s.next()) % max(n, 1) }

type opKind int

const (
	opQuery opKind = iota
	opBatch
	opAppend
	opAdvance
	opSnapshot
	opRepeat
	opMixedBatch // decoded after every opBatch, from the batch's items
)

// tickFlavor shapes the samples of an Append (or of the initial window).
type tickFlavor int

const (
	tickNormal    tickFlavor = iota
	tickConstant             // series v holds a constant
	tickDuplicate            // series v copies series u, series v+1 nearly
	tickHuge                 // the whole tick scaled by 2^500
	tickTiny                 // the whole tick scaled by 2^-500
	tickSubnormal            // every sample a subnormal
	tickInvalid              // series v is NaN: Append must reject it
	numFlavors
)

type door int

// The MEC doors ask a compute spec: every one through Batch, except that
// doorComputeExplain asks engines through Explain.
const (
	doorInterval door = iota
	doorTopK
	doorExplain
	doorCompute        // a MEC spec over the query's series
	doorComputeExplain // the same spec through Explain
	doorPair           // a MEC spec over the query's pair: one pair's value
	numDoors
)

// boundChoice picks an interval endpoint relative to the measure's current
// oracle values: unbounded, or the q-th smallest value (open or closed),
// moved toward the next one by frac/256.
type boundChoice struct {
	kind    int // 0 unbounded, 1 open, 2 closed
	q, frac byte
}

type query struct {
	door     door
	topK     bool // the spec's kind; the Interval and TopK doors fix it
	measure  measure.Measure
	method   core.Method
	lo, hi   boundChoice
	k        int
	largest  bool
	ids      []timeseries.SeriesID
	pair     timeseries.Pair
	resolved plan.QuerySpec
}

type op struct {
	kind        opKind
	flavor      tickFlavor
	u, v, count int
	queries     []query
	batchMethod core.Method
}

type sequence struct {
	n, m, clusters int
	seed           int64
	drift          float64
	flavor         tickFlavor
	u, v           int
	ops            []op
}

func decodeSequence(data []byte) sequence {
	src := &byteSource{data: data}
	s := sequence{
		n:        2 + src.intn(7),
		m:        2 + src.intn(23),
		clusters: 1 + src.intn(3),
		seed:     int64(src.next()),
		drift:    []float64{0, 0.05, 0.5}[src.intn(3)],
	}
	// This byte chose an LSFD pruning bound when the engine had one.  One
	// value in six now makes the window wide: 24 to 28 series, 276 to 378
	// pairs, more than the kernel.BlockPairs one sweep chunk holds.  The saved
	// corpus holds 0, 82 and 100 here and keeps its shape.
	if b := src.next(); b%6 == 5 {
		s.n = 24 + int(b/6)%5
	}
	s.flavor = tickFlavor(src.intn(int(tickInvalid)))
	s.u, s.v = src.intn(s.n), src.intn(s.n)
	measures := measure.All()
	decodeQuery := func(d door) query {
		q := query{door: d, topK: src.next()&1 == 1, method: core.Method(src.intn(4))}
		if i := src.intn(len(measures) + 1); i < len(measures) {
			q.measure = measures[i]
		} else {
			q.measure = measure.Measure(999) // not a registered measure
		}
		q.lo = boundChoice{src.intn(3), src.next(), src.next()}
		q.hi = boundChoice{src.intn(3), src.next(), src.next()}
		q.k = src.intn(s.n*(s.n-1)/2 + 3) // 0 (invalid) up to past the pair count
		q.largest = src.next()&1 == 0
		perm := rand.New(rand.NewSource(int64(src.next()))).Perm(s.n)
		for _, v := range perm[:src.intn(s.n+1)] {
			q.ids = append(q.ids, timeseries.SeriesID(v))
		}
		q.pair = timeseries.Pair{U: timeseries.SeriesID(src.intn(s.n)), V: timeseries.SeriesID(src.intn(s.n))}
		return q
	}
	for decoded := 0; src.pos < len(data) && decoded < 12; decoded++ {
		o := op{kind: []opKind{opQuery, opQuery, opBatch, opAppend, opAdvance, opAdvance, opSnapshot, opRepeat}[src.intn(8)]}
		switch o.kind {
		case opQuery:
			q := decodeQuery(door(src.intn(int(numDoors))))
			q.topK = q.door == doorTopK || q.door != doorInterval && q.topK
			o.queries = []query{q}
		case opBatch:
			o.batchMethod = core.Method(src.intn(4))
			for i := 1 + src.intn(4); i > 0; i-- {
				q := decodeQuery(doorInterval)
				q.method = o.batchMethod
				o.queries = append(o.queries, q)
			}
		case opAppend:
			o.flavor = tickFlavor(src.intn(int(numFlavors)))
			o.u, o.v, o.count = src.intn(s.n), src.intn(s.n), 1+src.intn(s.m+2)
		case opAdvance:
			o.count = 1 + src.intn(s.m+2) // slides from 1 past the window length
		}
		s.ops = append(s.ops, o)
		if o.kind == opBatch {
			s.ops = append(s.ops, mixedBatch(o))
		}
	}
	return s
}

// mixedBatch is the MixedBatch operation that follows a batch: its items,
// each followed by a MEC item over the item's measure and series, by Auto
// where the batch asks the index, which answers no MEC item.  Its invalid
// items are dropped when it is asked (validItems).
func mixedBatch(b op) op {
	o := op{kind: opMixedBatch, batchMethod: b.batchMethod}
	if o.batchMethod == core.MethodIndex {
		o.batchMethod = core.MethodAuto
	}
	for _, q := range b.queries {
		q.method = o.batchMethod
		mec := q
		mec.door = doorCompute
		o.queries = append(o.queries, q, mec)
	}
	return o
}

// validItems drops the resolved items a batch rejects as a whole — an
// unregistered measure, k < 1, an empty interval — from a mixed batch: the
// batch it follows already compares those errors.
func validItems(o *op) *op {
	valid := *o
	valid.queries = slices.DeleteFunc(slices.Clone(o.queries), func(q query) bool {
		spec := q.resolved
		return !q.measure.Valid() || spec.Kind == plan.KindTopK && spec.K < 1 ||
			spec.Kind == plan.KindInterval && spec.Interval.Empty()
	})
	return &valid
}

// backend is what core.Engine and shard.Coordinator share.
type backend interface {
	Interval(measure.Measure, interval.Interval, core.Method) (core.QueryResult, error)
	TopK(measure.Measure, int, bool, core.Method) (core.QueryResult, error)
	Batch([]plan.QuerySpec, core.Method) ([]core.QueryResult, error)
	Append([]float64) error
	Advance() (core.AdvanceInfo, error)
	Data() *timeseries.DataMatrix
}

// clustering returns a backend's frozen clustering.  An engine's is read
// through a pin, so that its epoch stays recyclable: the escaping
// Relationships would keep every epoch the lattice reads it at from ever
// being recycled, and the pin rule from being exercised.
func clustering(b backend) *cluster.Result {
	if e, ok := b.(*core.Engine); ok {
		v, release := e.Pin()
		defer release()
		return v.Relationships().Clustering
	}
	return b.(*shard.Coordinator).Relationships().Clustering
}

type cell struct {
	name    string
	cfg     core.Config
	sharded bool
	reach   string // how the cell reached its epoch: "", "cold" or "restored"
	eager   bool   // asks every L-measure by Naive at every epoch it reaches
	b       backend
}

// askLocations asks an eager cell for every L-measure by Naive; the answers
// are compared when a query asks, not here.
func (c *cell) askLocations() {
	if !c.eager {
		return
	}
	for _, m := range measure.ByClass(measure.LocationClass) {
		_, _ = c.b.Interval(m, interval.All(), core.MethodNaive)
	}
}

func buildBackend(d *timeseries.DataMatrix, cfg core.Config, sharded bool) (backend, error) {
	if sharded {
		return shard.Build(d, shard.Config{Shards: 2, Engine: cfg})
	}
	return core.Build(d, cfg)
}

// replayer holds one sequence's lattice while it is replayed.
type replayer struct {
	seq     sequence
	rng     *rand.Rand
	phase   []float64 // per-series phase of the latent signal
	t       int       // samples generated so far
	cells   []*cell   // streamed cells; cells[0] is the reference
	twins   []*cell   // cold-rebuilt and snapshot-restored cells of this epoch
	stale   bool      // twins must be rebuilt before the next query
	pending [][]float64
	last    *op
	// reused reports that the reference's last Advance carried a
	// relationship over from an older window: Lemma 1 and the fit oracle
	// hold only for fits of the current window.
	reused bool
	// pins are the engine cells' pins while a run of Advances lasts, and
	// pinnedAdvances the Advances applied since they were taken.
	pins           []heldPin
	pinnedAdvances int
	// refits lists whether each of the reference's Advances since its last
	// build or restore refit every relationship.
	refits []bool
	stats  latticeStats
}

// latticeStats is what a sequence exercised: its full → partial → full runs
// of Advances on the reference engine, all of them and those whose partial
// epoch was pinned across the second full Advance — which recycles the full
// epoch the partial one shares its relationships and sequence stores with, so
// only the pin rule keeps the pinned epoch's answers; its mixed batches asked
// and answered on the reference cell; whether its window is wide; the refresh
// epochs its small-cadence cells crossed; and the methods Auto planned on the
// reference cell.
type latticeStats struct {
	chains, pinnedChains      int
	mixedAsked, mixedAnswered int
	wide                      bool
	refreshes                 int
	autoPlans                 map[core.Method]int
}

// heldPin is an engine cell's pin on the epoch a run of Advances started
// from, with what the epoch answered when it was pinned.
type heldPin struct {
	name    string
	v       core.View
	release func()
	answer  string
}

// pinnedAnswers asks a pinned epoch a fixed set of queries — a D-measure
// interval, a T-measure top-k and an L-measure interval — by every method,
// and reads what those answer from once an epoch has filled its columns: its
// relationships, and the covariance of every pair as an index sharing every
// sequence store of the epoch's derives it (its ξ are projected afresh from
// the stores' payloads, so they show whatever the stores hold).
func pinnedAnswers(v core.View) string {
	specs := []plan.QuerySpec{
		plan.Interval(measure.Correlation, interval.All()),
		plan.TopK(measure.Covariance, 3, true),
		plan.Interval(measure.Mean, interval.All()),
	}
	var b []byte
	for _, method := range []core.Method{core.MethodNaive, core.MethodAffine, core.MethodIndex} {
		out, _, err := core.Run(v, specs, method, false)
		b = append(b, render(out, err)...)
	}
	rel := v.Relationships()
	for r := range rel.All() {
		a, t := r.Transform.A, r.Transform.B
		b = appendResult(b, core.QueryResult{Pairs: []timeseries.Pair{r.Pair}, Values: []float64{a[0][0], a[0][1], a[1][0], a[1][1], t[0], t[1]}})
	}
	if v.Index() != nil {
		shared, _, err := v.Index().Update(v.Data(), rel, map[timeseries.Pair]bool{}, scape.UpdateOptions{})
		if err == nil {
			var pairs []timeseries.Pair
			var values []float64
			pairs, values, _, err = shared.PairTopK(measure.Covariance, rel.Len(), true)
			b = appendResult(b, core.QueryResult{Pairs: pairs, Values: values})
		}
		b = append(b, render(nil, err)...)
	}
	return string(b)
}

// pinEpochs pins every engine cell's epoch before a run of Advances.
func (r *replayer) pinEpochs() {
	for _, c := range r.cells {
		if e, ok := c.b.(*core.Engine); ok {
			v, release := e.Pin()
			r.pins = append(r.pins, heldPin{name: c.name, v: v, release: release, answer: pinnedAnswers(v)})
		}
	}
	r.pinnedAdvances = 0
}

// releasePins asks every pinned epoch again and releases it.
func (r *replayer) releasePins() error {
	pins := r.pins
	r.pins = nil
	var err error
	for _, p := range pins {
		if got := pinnedAnswers(p.v); got != p.answer && err == nil {
			err = fmt.Errorf("%s: the epoch pinned across %d Advances answers differently:\n then %.400s\n now  %.400s",
				p.name, r.pinnedAdvances, p.answer, got)
		}
		p.release()
	}
	return err
}

// tick generates the next sample of every series: four latent groups of
// noisy sinusoids, shaped by the flavor.
func (r *replayer) tick(f tickFlavor, u, v int) []float64 {
	n := r.seq.n
	out := make([]float64, n)
	for i := range out {
		g := i % 4
		out[i] = float64(1+g)*math.Sin(float64(r.t)/float64(3+g)+r.phase[g]) + float64(i)/4 + 0.05*r.rng.NormFloat64()
	}
	r.t++
	switch f {
	case tickConstant:
		out[v] = 1.5 + float64(v)
	case tickDuplicate:
		// The near copy puts a pivot's common series and centre within
		// 1 − ρ² ≈ 1e-12 of collinear, where the moment form's exactness
		// guard must hand the fit to the kernel.
		out[(v+1)%n] = out[u] + 1e-6*r.rng.NormFloat64()
		out[v] = out[u]
	case tickHuge, tickTiny:
		scale := math.Ldexp(1, 500)
		if f == tickTiny {
			scale = math.Ldexp(1, -500)
		}
		for i := range out {
			out[i] *= scale
		}
	case tickSubnormal:
		for i := range out {
			out[i] = math.Ldexp(math.Round(out[i]*8), -1074)
		}
	case tickInvalid:
		out[v] = math.NaN()
	}
	return out
}

// refreshEvery is the statistics-refresh cadence of the cells of each
// Parallelism; 0 is the default, which no sequence reaches.
var refreshEvery = map[int]int{1: 0, 2: 2, 8: 3}

func newReplayer(seq sequence) (*replayer, error) {
	r := &replayer{seq: seq, rng: rand.New(rand.NewSource(seq.seed)), phase: make([]float64, 4)}
	r.stats.wide, r.stats.autoPlans = seq.n >= 24, map[core.Method]int{}
	for g := range r.phase {
		r.phase[g] = r.rng.Float64() * 2 * math.Pi
	}
	series := make([][]float64, seq.n)
	for t := 0; t < seq.m; t++ {
		for i, x := range r.tick(seq.flavor, seq.u, seq.v) {
			series[i] = append(series[i], x)
		}
	}
	d, err := timeseries.NewDataMatrix(series)
	if err != nil {
		return nil, err
	}
	var builds []string
	for _, sharded := range []bool{false, true} {
		for _, p := range []int{1, 2, 8} {
			for _, cached := range []bool{false, true} {
				for _, sketched := range []bool{false, true} {
					c := &cell{
						name:    fmt.Sprintf("sharded=%v/P=%d/cache=%v/sketch=%v", sharded, p, cached, sketched),
						sharded: sharded,
						cfg: core.Config{
							Clusters: seq.clusters, Seed: seq.seed, Parallelism: p,
							Stream: core.StreamConfig{DriftBound: seq.drift, StatsRefreshEvery: refreshEvery[p]},
							Cache:  qcache.Options{Enabled: cached},
							Sketch: sketch.Options{Enabled: sketched},
						},
					}
					c.b, err = buildBackend(d, c.cfg, sharded)
					builds = append(builds, render(nil, err))
					r.cells = append(r.cells, c)
				}
			}
		}
	}
	for _, sharded := range []bool{false, true} {
		c := &cell{
			name:    fmt.Sprintf("sharded=%v/P=2/eager", sharded),
			sharded: sharded,
			eager:   true,
			cfg: core.Config{
				Clusters: seq.clusters, Seed: seq.seed, Parallelism: 2,
				Stream: core.StreamConfig{DriftBound: seq.drift},
			},
		}
		c.b, err = buildBackend(d, c.cfg, sharded)
		builds = append(builds, render(nil, err))
		if err == nil {
			c.askLocations()
		}
		r.cells = append(r.cells, c)
	}
	if err := sameAnswer("Build", r.cells, builds, nil); err != nil || builds[0] != render(nil, nil) {
		return nil, err // every cell refused the window alike
	}
	r.stale = true
	return r, nil
}

// rebuildTwins builds, for every streamed cell, its cold rebuild on the
// current window with the frozen clustering (only at DriftBound 0, where an
// Advance refits everything) and, for engines, its snapshot restore.
func (r *replayer) rebuildTwins() error {
	r.twins = r.twins[:0]
	for _, c := range r.cells {
		if r.seq.drift == 0 {
			cfg := c.cfg
			cfg.Clustering = clustering(c.b)
			b, err := buildBackend(c.b.Data(), cfg, c.sharded)
			if err != nil {
				return fmt.Errorf("%s: cold rebuild: %w", c.name, err)
			}
			r.twins = append(r.twins, &cell{name: c.name + "/cold", cfg: c.cfg, sharded: c.sharded, reach: "cold", b: b})
		}
		if e, ok := c.b.(*core.Engine); ok {
			restored, err := restore(e, c.cfg)
			if err != nil {
				return fmt.Errorf("%s: snapshot restore: %w", c.name, err)
			}
			r.twins = append(r.twins, &cell{name: c.name + "/restored", cfg: c.cfg, reach: "restored", b: restored})
		}
	}
	r.stale = false
	return nil
}

func restore(e *core.Engine, cfg core.Config) (*core.Engine, error) {
	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf); err != nil {
		return nil, err
	}
	return core.BuildFromSnapshot(e.Data(), &buf, cfg)
}

// typedErrors are the sentinels an answer's error is classified by.
var typedErrors = []error{
	core.ErrBadMethod, core.ErrNoIndex, core.ErrEmptyRange, core.ErrBadTopK, core.ErrStreamShape,
	core.ErrMeasureNotIndexed, core.ErrBadSnapshot, measure.ErrUnknownMeasure, measure.ErrEmptyInput,
	measure.ErrLengthMismatch, measure.ErrZeroNormalizer, timeseries.ErrInvalidSeries, timeseries.ErrInvalidPair,
}

// render is an answer's lattice-comparable form: a result's floats in
// hexadecimal, anything else by %v, which prints every float as the shortest
// decimal that round-trips it, so equal renderings are equal bits; an error
// as the sentinels it wraps.
func render(v any, err error) string {
	if err != nil {
		var names []string
		for _, s := range typedErrors {
			if errors.Is(err, s) {
				names = append(names, s.Error())
			}
		}
		return fmt.Sprintf("error %q", names)
	}
	switch res := v.(type) {
	case core.QueryResult:
		return string(appendResult(nil, res))
	case []core.QueryResult:
		var b []byte
		for _, r := range res {
			b = appendResult(b, r)
		}
		return string(b)
	}
	return fmt.Sprintf("%v", v)
}

// appendResult appends a result's rendering to b: its pairs, series, values
// and matrix rows, each list closed by a semicolon.
func appendResult(b []byte, res core.QueryResult) []byte {
	b = append(b, '{')
	for _, p := range res.Pairs {
		b = strconv.AppendInt(b, int64(p.U), 10)
		b = append(b, '-')
		b = strconv.AppendInt(b, int64(p.V), 10)
		b = append(b, ' ')
	}
	b = append(b, ';')
	for _, id := range res.Series {
		b = strconv.AppendInt(b, int64(id), 10)
		b = append(b, ' ')
	}
	b = append(b, ';')
	for _, row := range append([][]float64{res.Values}, res.Matrix...) {
		for _, x := range row {
			b = strconv.AppendFloat(b, x, 'x', -1, 64)
			b = append(b, ' ')
		}
		b = append(b, ';')
	}
	return append(b, '}')
}

// sameAnswer requires every cell's answer to equal the first answer of its
// group: the whole lattice unless group says otherwise.
func sameAnswer(label string, cells []*cell, answers []string, group func(*cell) string) error {
	for i, c := range cells {
		j := 0
		if group != nil {
			j = slices.IndexFunc(cells, func(o *cell) bool { return group(o) == group(c) })
		}
		if answers[i] != answers[j] {
			return fmt.Errorf("%s: %s diverges from %s:\n got  %.400s\n want %.400s",
				label, c.name, cells[j].name, answers[i], answers[j])
		}
	}
	return nil
}

// autoGroup groups the cells whose Auto plans must agree.  A sketch prices
// the naive route from its kept coefficients, which a slid sketch picked at
// its last refresh and a rebuilt or restored one picks afresh, so with a
// sketch Auto may plan another method on another backend or epoch history;
// checkCell ties each Auto answer to the concrete method it plans, and those
// are compared across the whole lattice.
func autoGroup(c *cell) string {
	if !c.cfg.Sketch.Enabled {
		return ""
	}
	return fmt.Sprint(c.sharded, c.reach, c.cfg.Stream.StatsRefreshEvery)
}

// planGroup groups the cells whose Explain plans must agree: the engines as
// Auto's plans do; a coordinator has no Explain door.
func planGroup(c *cell) string { return fmt.Sprint(c.sharded, autoGroup(c)) }

// oracle evaluates a measure from the raw window, one pair (or series) at a
// time through the scalar evaluators: NaN where the measure is undefined.
type oracle struct {
	ids    []timeseries.SeriesID
	pairs  []timeseries.Pair
	values []float64 // aligned with ids (L-measures) or pairs
}

func newOracle(d *timeseries.DataMatrix, m measure.Measure) (oracle, error) {
	if !m.Pairwise() {
		vals, err := baseline.NewNaive(d).Location(m, d.IDs())
		return oracle{ids: d.IDs(), values: vals}, err
	}
	o := oracle{pairs: d.AllPairs()}
	for _, p := range o.pairs {
		su, _ := d.Series(p.U)
		sv, _ := d.Series(p.V)
		v, err := measure.OrNaN(measure.EvalPair(m, su, sv))
		if err != nil {
			return o, err
		}
		o.values = append(o.values, v)
	}
	return o, nil
}

// entries returns the defined oracle entries in canonical order, as a
// result whose Values are aligned.
func (o oracle) entries(keep func(float64) bool) core.QueryResult {
	var res core.QueryResult
	for i, v := range o.values {
		if math.IsNaN(v) || !keep(v) {
			continue
		}
		if o.pairs != nil {
			res.Pairs = append(res.Pairs, o.pairs[i])
		} else {
			res.Series = append(res.Series, o.ids[i])
		}
		res.Values = append(res.Values, v)
	}
	return res
}

// topK ranks the defined entries by value, ties by identity (the canonical
// order entries already has), and keeps the best k.
func (o oracle) topK(k int, largest bool) core.QueryResult {
	res := o.entries(func(float64) bool { return true })
	idx := make([]int, len(res.Values))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		va, vb := res.Values[a], res.Values[b]
		if largest {
			va, vb = vb, va
		}
		switch {
		case va < vb:
			return -1
		case va > vb:
			return 1
		}
		return 0
	})
	var out core.QueryResult
	for _, i := range idx[:min(k, len(idx))] {
		if res.Pairs != nil {
			out.Pairs = append(out.Pairs, res.Pairs[i])
		} else {
			out.Series = append(out.Series, res.Series[i])
		}
		out.Values = append(out.Values, res.Values[i])
	}
	return out
}

func orderedPair(u, v timeseries.SeriesID) timeseries.Pair {
	return timeseries.Pair{U: min(u, v), V: max(u, v)}
}

// resolve turns a query's endpoint choices into an interval over the
// measure's current oracle values.
func (q *query) resolve(o oracle) {
	vals := slices.DeleteFunc(slices.Clone(o.values), math.IsNaN)
	slices.Sort(vals)
	if len(vals) == 0 {
		vals = []float64{0, 1}
	}
	bound := func(c boundChoice) interval.Bound {
		i := int(c.q) % len(vals)
		next := vals[i] + 1 + math.Abs(vals[i])
		if i+1 < len(vals) {
			next = vals[i+1]
		}
		v := vals[i] + float64(c.frac)/256*(next-vals[i])
		switch c.kind {
		case 1:
			return interval.Open(v)
		case 2:
			return interval.Closed(v)
		}
		return interval.Unbounded()
	}
	switch {
	case q.door == doorPair:
		q.resolved = core.ComputeSpec(q.measure, []timeseries.SeriesID{q.pair.U, q.pair.V})
	case q.door >= doorCompute:
		q.resolved = core.ComputeSpec(q.measure, q.ids)
	case q.topK:
		q.resolved = plan.TopK(q.measure, q.k, q.largest)
	default:
		q.resolved = plan.Interval(q.measure, interval.New(bound(q.lo), bound(q.hi)))
	}
}

// ask runs one query through its door on one cell.  A coordinator has no
// Explain door: it answers the explained doors' specs like the others.
func ask(c *cell, q query, method core.Method) (any, error) {
	spec := q.resolved
	if e, ok := c.b.(*core.Engine); ok && (q.door == doorExplain || q.door == doorComputeExplain) {
		res, _, err := e.Explain(spec, method)
		return res, err
	}
	switch spec.Kind {
	case plan.KindTopK:
		return c.b.TopK(spec.Measure, spec.K, spec.Largest, method)
	case plan.KindInterval:
		return c.b.Interval(spec.Measure, spec.Interval, method)
	}
	out, err := c.b.Batch([]plan.QuerySpec{spec}, method)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// mecMatrix asks a pairwise MEC spec: the matrix of m over ids.
func mecMatrix(b backend, m measure.Measure, ids []timeseries.SeriesID, method core.Method) ([][]float64, error) {
	out, err := b.Batch([]plan.QuerySpec{core.ComputeSpec(m, ids)}, method)
	if err != nil {
		return nil, err
	}
	return out[0].Matrix, nil
}

// batch runs a batch op on one cell: the facade's Batch over an engine, the
// coordinator's own otherwise.
func batch(c *cell, specs []plan.QuerySpec, method core.Method) ([]core.QueryResult, error) {
	if e, ok := c.b.(*core.Engine); ok {
		return (&Engine{inner: e}).Batch(specs, method)
	}
	return c.b.Batch(specs, method)
}

// pinnedBatch asks an engine cell's batch again through a pinned View of its
// epoch, as one core.Run, explained, and item by item, and requires the
// batch's answers, and of every explained plan the single Explain's, but for
// the shared wall time and which of the two found a column filled.  It counts
// the methods Auto plans in autoPlans unless it is nil.
func pinnedBatch(c *cell, specs []plan.QuerySpec, method core.Method, want []core.QueryResult, autoPlans map[core.Method]int) error {
	e, ok := c.b.(*core.Engine)
	if !ok {
		return nil
	}
	v, release := e.Pin()
	defer release()
	out, _, err := core.Run(v, specs, method, false)
	if got, w := render(out, err), render(want, nil); got != w {
		return fmt.Errorf("%s: the batch through a pinned View differs:\n view  %.400s\n batch %.400s", c.name, got, w)
	}
	out, plans, err := core.Run(v, specs, method, true)
	if got, w := render(out, err), render(want, nil); got != w {
		return fmt.Errorf("%s: the explained batch through a pinned View differs:\n view  %.400s\n batch %.400s", c.name, got, w)
	}
	for j, spec := range specs {
		one, _, err := core.Run(v, specs[j:j+1], method, false)
		if got, w := render(one, err), render(want[j:j+1], nil); got != w {
			return fmt.Errorf("%s: item %d (%v) alone through a pinned View differs:\n view  %.400s\n batch %.400s", c.name, j, spec, got, w)
		}
		_, single, err := e.Explain(spec, method)
		if err != nil {
			return fmt.Errorf("%s: Explain %v: %w", c.name, spec, err)
		}
		if got, w := comparablePlan(plans[j], false), comparablePlan(single, false); got != w {
			return fmt.Errorf("%s: item %d (%v) of the explained batch plans differently from Explain:\n batch   %s\n Explain %s", c.name, j, spec, got, w)
		}
		if autoPlans != nil && method == core.MethodAuto {
			autoPlans[single.Method]++
		}
	}
	return nil
}

// comparablePlan renders every field of a plan but its wall time and where
// its base values came from, which depends on which query of the epoch came
// first; across cells also but what the result cache and the sketches did for
// it.
func comparablePlan(p plan.Plan, acrossCells bool) string {
	p.Duration, p.BaseValues = 0, ""
	if acrossCells {
		p.CacheTier, p.CacheRepairedPairs, p.SketchedPairs, p.SketchRefinedPairs = "", 0, 0, 0
	}
	type fields plan.Plan // without Plan's String method, which prints a few
	return fmt.Sprintf("%+v", fields(p))
}

// checkCell asserts the per-cell properties of one query: Explain's actual
// row count is the result size and Auto answers like the method Explain
// reports for it.  It returns the plan in the form planGroup compares, empty
// where there is none, and counts the methods Auto plans in autoPlans unless
// it is nil.
func checkCell(c *cell, q query, answer string, autoPlans map[core.Method]int) (string, error) {
	e, ok := c.b.(*core.Engine)
	if !ok || !q.resolved.Measure.Valid() {
		return "", nil
	}
	res, p, err := e.Explain(q.resolved, q.method)
	if err != nil {
		return "", nil // the lattice already compared the error
	}
	if p.ActualRows != res.Size() {
		return "", fmt.Errorf("%s: Explain %v reports %d rows, returned %d", c.name, q.resolved, p.ActualRows, res.Size())
	}
	if q.method != core.MethodAuto {
		return comparablePlan(p, true), nil
	}
	if autoPlans != nil {
		autoPlans[p.Method]++
	}
	if !p.Method.Concrete() {
		return "", fmt.Errorf("%s: Explain %v plans %v", c.name, q.resolved, p.Method)
	}
	if got := render(ask(c, q, p.Method)); got != answer {
		return "", fmt.Errorf("%s: Auto %v differs from the %v it plans:\n auto %.400s\n plan %.400s", c.name, q.resolved, p.Method, answer, got)
	}
	return comparablePlan(p, true), nil
}

// checkOracle asserts the reference-cell properties: Naive is the scalar
// oracle, Affine and Index return the same rows on T- and D-measures, and the
// same bits on L-measures, which the index answers from the calibration.
func checkOracle(ref *cell, q query, o oracle, res any, err error) error {
	if err != nil || !q.measure.Valid() {
		return nil
	}
	label := fmt.Sprintf("%v door %d method %v", q.resolved, q.door, q.method)
	switch q.method {
	case core.MethodNaive:
		var want any
		switch spec := q.resolved; spec.Kind {
		case plan.KindTopK:
			want = o.topK(q.k, q.largest)
		case plan.KindInterval:
			rows := o.entries(spec.Interval.Contains)
			rows.Values = nil // an interval result carries no values
			want = rows
		default:
			if !q.measure.Pairwise() {
				values := make([]float64, len(spec.IDs))
				for i, id := range spec.IDs {
					values[i] = o.values[id]
				}
				want = core.QueryResult{Series: spec.IDs, Values: values}
				break
			}
			got := res.(core.QueryResult).Matrix
			d := ref.b.Data()
			for i, u := range spec.IDs {
				for j, v := range spec.IDs {
					if u == v {
						continue
					}
					w := o.values[timeseries.PairRank(d.NumSeries(), orderedPair(u, v))]
					if math.Float64bits(got[i][j]) != math.Float64bits(w) && !(math.IsNaN(w) && math.IsNaN(got[i][j])) {
						return fmt.Errorf("%s: naive cell (%d,%d) = %x, oracle %x", label, u, v, got[i][j], w)
					}
				}
			}
			return nil
		}
		if got, w := render(res, nil), render(want, nil); got != w {
			return fmt.Errorf("%s: naive answer differs from the scalar oracle:\n got  %.400s\n want %.400s", label, got, w)
		}
	case core.MethodAffine, core.MethodIndex:
		if q.resolved.Kind == plan.KindCompute || !measure.Lookup(q.measure).Indexable ||
			q.measure.Pairwise() && extremeNorms(ref.b.Data()) {
			return nil
		}
		other := core.MethodIndex + core.MethodAffine - q.method
		res2, err := ask(ref, q, other)
		if err != nil {
			return fmt.Errorf("%s: %v answers, %v fails: %v", label, q.method, other, err)
		}
		a, b := res.(core.QueryResult), res2.(core.QueryResult)
		if q.method == core.MethodIndex {
			a, b = b, a
		}
		if !q.measure.Pairwise() {
			if render(a, nil) == render(b, nil) {
				return nil
			}
			return fmt.Errorf("%s: affine and index answers differ:\n affine %v %v\n index  %v %v", label, a.Series, a.Values, b.Series, b.Values)
		}
		if sameRows(ref, q, a, b) {
			return nil
		}
		return fmt.Errorf("%s: affine and index rows differ:\n affine %v\n index  %v", label, a.Pairs, b.Pairs)
	}
	return nil
}

// checkLemma1 asserts the paper's Lemma 1 on the reference cell: a
// relationship keeps its pair's common series and is a least-squares fit, so
// its residual is orthogonal to that series and it propagates the pair's dot
// product — and covariance — exactly up to rounding, far below 1e-7 of
// ‖x_u‖·‖x_v‖.  It holds while every relationship was fitted on the current
// window.
func checkLemma1(ref *cell) error {
	d := ref.b.Data()
	norm := norms(d)
	for _, m := range []measure.Measure{measure.DotProduct, measure.Covariance} {
		o, err := newOracle(d, m)
		if err != nil {
			return err
		}
		affine, err := mecMatrix(ref.b, m, d.IDs(), core.MethodAffine)
		if err != nil {
			return fmt.Errorf("Lemma 1: affine %v: %w", m, err)
		}
		for i, p := range o.pairs {
			tol := 1e-7 * norm[p.U] * norm[p.V]
			if m == measure.Covariance {
				tol /= float64(d.NumSamples() - 1)
			}
			if got := affine[p.U][p.V]; !(math.Abs(got-o.values[i]) <= tol) {
				return fmt.Errorf("Lemma 1: affine %v of %v is %v, naive %v (tolerance %v)", m, p, got, o.values[i], tol)
			}
		}
	}
	return nil
}

// checkFits asserts on the reference cell that every relationship fitted on
// the current window is the least-squares fit plain SYMEX computes, one
// pseudo-inverse per relationship: the coefficients of the other series agree
// to 1e-7 in σ units (DESIGN.md "Moment-form fits" puts them within about
// 1e-12).  A pivot the moment form's exactness guard should have sent to the
// kernel — its common series and centre nearly collinear — breaks it long
// before Lemma 1 notices, because ill-conditioning moves coefficients, not
// fitted values.
func checkFits(ref *core.Engine) error {
	v, release := ref.Pin()
	defer release()
	d, rel := v.Data(), v.Relationships()
	plain, err := symex.Compute(d, symex.Options{Clustering: rel.Clustering})
	if err != nil {
		return fmt.Errorf("plain SYMEX: %w", err)
	}
	sigma := func(x []float64) float64 {
		v, _ := measure.VarianceOf(x)
		return math.Sqrt(v)
	}
	for got := range rel.All() {
		want, ok := plain.Relationship(got.Pair)
		if !ok || want.Pivot != got.Pivot {
			continue
		}
		c, _ := d.Series(got.Common())
		y, _ := d.Series(got.Other())
		sc, sr, sy := sigma(c), sigma(rel.Clustering.Centers[got.Pivot.Cluster]), sigma(y)
		a, b := got.Transform.A, want.Transform.A
		if diff := max(math.Abs(a[0][1]-b[0][1])*sc, math.Abs(a[1][1]-b[1][1])*sr); sy > 0 && !(diff <= 1e-7*sy) {
			return fmt.Errorf("fit of %v: %v, plain SYMEX %v: %.3g σ apart", got.Pair, got.Transform, want.Transform, diff/sy)
		}
	}
	return nil
}

// norms returns every series' Euclidean norm ‖x‖ over the window.
func norms(d *timeseries.DataMatrix) []float64 {
	out := make([]float64, d.NumSeries())
	for i, id := range d.IDs() {
		x, _ := d.Series(id)
		for _, v := range x {
			out[i] += v * v
		}
		out[i] = math.Sqrt(out[i])
	}
	return out
}

// extremeNorms reports whether some series' ‖x‖⁴ leaves the normal float
// range: it overflows for samples around 1e76 and up, where the index's
// dot-product-space normalizers overflow and it drops pairs the affine
// method still ranks, and it underflows for nonzero samples around 1e-77
// and below, where the propagation's products lose their digits.  Those are
// range limits ROADMAP records; Affine ≡ Index and Lemma 1 are asserted
// inside the range only.
func extremeNorms(d *timeseries.DataMatrix) bool {
	return slices.ContainsFunc(norms(d), func(x float64) bool {
		x4 := x * x * x * x
		return math.IsInf(x4, 0) || x > 0 && x4 < 0x1p-1022
	})
}

// sameRows reports whether the affine and index answers hold the same pairs,
// or a difference is excused: the two methods' values may differ in the last
// bits, so an entry within 1e-6 (relative) of an interval endpoint or of the
// top-k cut may fall either way.
func sameRows(ref *cell, q query, affine, index core.QueryResult) bool {
	d := ref.b.Data()
	values, err := mecMatrix(ref.b, q.measure, d.IDs(), core.MethodAffine)
	if err != nil {
		return false
	}
	in := func(res core.QueryResult) map[timeseries.Pair]bool {
		set := map[timeseries.Pair]bool{}
		for _, p := range res.Pairs {
			set[p] = true
		}
		return set
	}
	inAffine, inIndex := in(affine), in(index)
	var edges []float64
	if q.resolved.Kind == plan.KindTopK {
		if len(affine.Values) > 0 {
			edges = append(edges, affine.Values[len(affine.Values)-1])
		}
	} else {
		for _, b := range []interval.Bound{q.resolved.Interval.Lo, q.resolved.Interval.Hi} {
			if !b.Unbounded {
				edges = append(edges, b.Value)
			}
		}
	}
	for _, p := range d.AllPairs() {
		if inAffine[p] == inIndex[p] {
			continue
		}
		v := values[p.U][p.V]
		if !slices.ContainsFunc(edges, func(e float64) bool { return math.Abs(v-e) <= 1e-6*(1+math.Abs(e)) }) {
			return false
		}
	}
	return true
}

// replay runs one encoded sequence across the lattice and returns its first
// divergence, and what it exercised.
func replay(data []byte) (latticeStats, error) {
	seq := decodeSequence(data)
	r, err := newReplayer(seq)
	if r == nil {
		return latticeStats{}, err
	}
	for i := range seq.ops {
		o := &seq.ops[i]
		if o.kind == opRepeat {
			if r.last == nil {
				continue
			}
			o = r.last
		}
		if err := r.apply(o); err != nil {
			return r.stats, fmt.Errorf("op %d (%+v): %w", i, *o, err)
		}
		if o.kind == opQuery || o.kind == opBatch || o.kind == opMixedBatch {
			r.last = o
		}
	}
	return r.stats, r.releasePins()
}

func (r *replayer) apply(o *op) error {
	ref := r.cells[0]
	answers := make([]string, len(r.cells))
	switch {
	case o.kind == opAdvance && r.pins == nil:
		r.pinEpochs()
	case o.kind == opQuery || o.kind == opBatch || o.kind == opMixedBatch:
		if err := r.releasePins(); err != nil {
			return err
		}
	}
	switch o.kind {
	case opAppend, opAdvance:
		var ticks [][]float64
		if o.kind == opAppend {
			for i := 0; i < o.count; i++ {
				ticks = append(ticks, r.tick(o.flavor, o.u, o.v))
			}
		} else {
			for i := len(r.pending); i < o.count; i++ {
				ticks = append(ticks, r.tick(tickNormal, 0, 0))
			}
		}
		for _, tick := range ticks {
			for i, c := range r.cells {
				answers[i] = render(nil, c.b.Append(tick))
			}
			if err := sameAnswer("Append", r.cells, answers, nil); err != nil {
				return err
			}
			if answers[0] == render(nil, nil) {
				r.pending = append(r.pending, tick)
			}
		}
		if o.kind == opAppend {
			return nil
		}
		r.pinnedAdvances++
		refreshed := false
		for i, c := range r.cells {
			info, err := c.b.Advance()
			if i == 0 && err == nil {
				r.pending, r.stale, r.reused = nil, true, info.ReusedRelationships > 0
				r.countChain(info.FullRefit)
			}
			if err == nil {
				c.askLocations()
				if every := c.cfg.Stream.StatsRefreshEvery; every > 0 && info.Epoch%every == 0 {
					refreshed = true
				}
			}
			answers[i] = render(fmt.Sprint(info.Slide, info.FullRefit, core.SortedStalePairs(info.Stale),
				info.RefitRelationships, info.ReusedRelationships), err)
		}
		if refreshed {
			r.stats.refreshes++
		}
		return sameAnswer("Advance", r.cells, answers, nil)
	case opSnapshot:
		for _, c := range r.cells {
			e, ok := c.b.(*core.Engine)
			if !ok {
				continue
			}
			restored, err := restore(e, c.cfg)
			if err != nil {
				return fmt.Errorf("%s: snapshot restore: %w", c.name, err)
			}
			for _, tick := range r.pending {
				if err := restored.Append(tick); err != nil {
					return err
				}
			}
			c.b = restored
			c.askLocations()
		}
		r.stale, r.refits = true, nil
		return nil
	}

	if r.stale {
		if err := r.rebuildTwins(); err != nil {
			return err
		}
		if !r.reused && !extremeNorms(ref.b.Data()) {
			if err := checkLemma1(ref); err != nil {
				return err
			}
			if err := checkFits(ref.b.(*core.Engine)); err != nil {
				return err
			}
		}
	}
	cells := append(slices.Clone(r.cells), r.twins...)
	answers = make([]string, len(cells))
	oracles := map[measure.Measure]oracle{}
	for i := range o.queries {
		q := &o.queries[i]
		if _, ok := oracles[q.measure]; !ok && q.measure.Valid() {
			orc, err := newOracle(ref.b.Data(), q.measure)
			if err != nil {
				return fmt.Errorf("oracle %v: %w", q.measure, err)
			}
			oracles[q.measure] = orc
		}
		q.resolve(oracles[q.measure])
	}

	if o.kind == opMixedBatch {
		if o = validItems(o); len(o.queries) == 0 {
			return nil
		}
		r.stats.mixedAsked++
	}
	if o.kind == opBatch || o.kind == opMixedBatch {
		specs := make([]plan.QuerySpec, len(o.queries))
		for j, q := range o.queries {
			specs[j] = q.resolved
		}
		for i, c := range cells {
			out, err := batch(c, specs, o.batchMethod)
			answers[i] = render(out, err)
			if i == 0 && err == nil && o.kind == opMixedBatch {
				r.stats.mixedAnswered++
			}
			if err != nil {
				continue
			}
			for j, q := range o.queries {
				if got, want := render(ask(c, q, q.method)), render(out[j], nil); got != want {
					return fmt.Errorf("%s: batch item %d (%v) differs from the single query:\n batch  %.400s\n single %.400s",
						c.name, j, q.resolved, want, got)
				}
			}
			if o.kind == opMixedBatch {
				var autoPlans map[core.Method]int
				if i == 0 {
					autoPlans = r.stats.autoPlans
				}
				if err := pinnedBatch(c, specs, o.batchMethod, out, autoPlans); err != nil {
					return err
				}
			}
		}
		var group func(*cell) string
		if o.batchMethod == core.MethodAuto {
			group = autoGroup
		}
		return sameAnswer("batch", cells, answers, group)
	}

	q := o.queries[0]
	var refRes any
	var refErr error
	plans := make([]string, len(cells))
	for i, c := range cells {
		res, err := ask(c, q, q.method)
		if i == 0 {
			refRes, refErr = res, err
		}
		if res == nil && err == nil {
			answers[i] = answers[0] // a door this backend does not have
			continue
		}
		answers[i] = render(res, err)
		var autoPlans map[core.Method]int
		if i == 0 {
			autoPlans = r.stats.autoPlans
		}
		if plans[i], err = checkCell(c, q, answers[i], autoPlans); err != nil {
			return err
		}
	}
	label := fmt.Sprintf("%v door %d method %v", q.resolved, q.door, q.method)
	var group func(*cell) string
	if q.method == core.MethodAuto {
		group = autoGroup
	}
	if err := sameAnswer(label, cells, answers, group); err != nil {
		return err
	}
	if err := sameAnswer(label+" plan", cells, plans, planGroup); err != nil {
		return err
	}
	return checkOracle(ref, q, oracles[q.measure], refRes, refErr)
}

// countChain records one Advance of the reference engine and counts the
// full → partial → full run it may end.  The first Advance of a run is the
// one the engine cells' pins were taken before, on the epoch the previous
// Advance produced.
func (r *replayer) countChain(full bool) {
	r.refits = append(r.refits, full)
	n := len(r.refits)
	if n >= 3 && r.refits[n-3] && !r.refits[n-2] && full {
		r.stats.chains++
		if r.pinnedAdvances == 1 {
			r.stats.pinnedChains++
		}
	}
}

// generate draws the bytes of the i-th generated sequence.  One in eight is
// wide (decodeSequence), and no other.  Under a positive drift bound, where a
// slide shorter than the window refits only the drifted relationships, two
// prefixes are drawn more often than random bytes would:
//
//   - one in four starts with full, partial and full Advances, each followed
//     by a query: the second full Advance is the first of its run, so it
//     recycles the first one's epoch while the partial epoch, which shares
//     its relationships and sequence stores, is pinned;
//   - one in eight starts from a window with a constant series, keeps it
//     constant through a partial Advance — no fit leaves the naive
//     covariance column there, so naive sweeps classify by bounds — and asks
//     the naive correlation of every pair, undefined on the constant
//     series' pairs.
func generate(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 24+rng.Intn(160))
	rng.Read(data)
	if data[5]%6 == 5 {
		data[5]--
	}
	if seed%8 == 0 {
		data[5] = byte(5 + 6*rng.Intn(5))
	}
	prefix := rng.Intn(8)
	if prefix > 2 {
		return data
	}
	data[4] = byte(1 + rng.Intn(2)) // DriftBound 0.05 or 0.5
	m := 2 + int(data[1])%23
	header, ops := data[:9], data[9:]
	query := func() []byte { // an opQuery's byte, then its door's and query's
		q := make([]byte, 17)
		rng.Read(q)
		q[0] = 0
		return q
	}
	advance := func(full bool) []byte { // the slide is the second byte plus one
		if full {
			return []byte{4, byte(m - 1 + rng.Intn(3))}
		}
		return []byte{4, byte(rng.Intn(m - 1))}
	}
	if prefix < 2 {
		return slices.Concat(header, advance(true), query(), advance(false), query(), advance(true), query(), ops)
	}
	header[6] = byte(tickConstant) // the window's series header[8] is constant
	appendConstant := []byte{3, byte(tickConstant), header[7], header[8], 0}
	correlation := query()
	correlation[1] = byte(doorInterval)
	copy(correlation[2:], []byte{0, byte(core.MethodNaive), byte(slices.Index(measure.All(), measure.Correlation)), 0, 0, 0, 0, 0, 0})
	return slices.Concat(header, appendConstant, []byte{4, 0}, correlation, ops)
}

// shrink minimises a failing byte string QuickCheck-style: it keeps any
// deletion of a chunk, or lowering of a byte, after which replay still fails.
func shrink(data []byte) []byte {
	fails := func(d []byte) bool {
		_, err := replay(d)
		return err != nil
	}
	for improved := true; improved; {
		improved = false
		for size := len(data) / 2; size >= 1; size /= 2 {
			for at := 0; at+size <= len(data); {
				if cand := slices.Delete(slices.Clone(data), at, at+size); fails(cand) {
					data, improved = cand, true
				} else {
					at += size
				}
			}
		}
		for i := range data {
			for _, b := range []byte{0, data[i] / 2, data[i] - 1} {
				if b >= data[i] {
					continue
				}
				cand := slices.Clone(data)
				cand[i] = b
				if fails(cand) {
					data, improved = cand, true
					break
				}
			}
		}
	}
	return data
}

// TestOperationLattice replays -lattice.sequences generated sequences and
// logs what they exercised (latticeStats).
func TestOperationLattice(t *testing.T) {
	var chained, pinned, asked, answered, wide, refreshed int
	auto := map[core.Method]int{}
	for i := 0; i < *latticeSequences; i++ {
		seed := *latticeSeed + int64(i)
		data := generate(seed)
		st, err := replay(data)
		if err != nil {
			small := shrink(data)
			_, smallErr := replay(small)
			t.Fatalf("sequence seed %d: %v\nshrunk to %d bytes: %v\nsave as testdata/fuzz/FuzzOperationSequence/seed-%d:\ngo test fuzz v1\n[]byte(%q)",
				seed, err, len(small), smallErr, seed, small)
		}
		count := func(yes bool) int {
			if yes {
				return 1
			}
			return 0
		}
		chained += count(st.chains > 0)
		pinned += count(st.pinnedChains > 0)
		wide += count(st.wide)
		refreshed += count(st.refreshes > 0)
		asked += st.mixedAsked
		answered += st.mixedAnswered
		for m, n := range st.autoPlans {
			auto[m] += n
		}
	}
	n := *latticeSequences
	t.Logf("%d of %d sequences ran full → partial → full Advances, %d with the partial epoch pinned across the second full Advance", chained, n, pinned)
	t.Logf("%d of %d mixed batches answered; %d wide sequences; %d crossed a refresh epoch; Auto planned Naive %d, Affine %d, Index %d times",
		answered, asked, wide, refreshed, auto[core.MethodNaive], auto[core.MethodAffine], auto[core.MethodIndex])
}

// FuzzOperationSequence is the lattice behind Go's fuzzer, which shrinks a
// failing input before it writes it to testdata/fuzz.
func FuzzOperationSequence(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(generate(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := replay(data); err != nil {
			t.Fatal(strings.TrimSpace(err.Error()))
		}
	})
}
