package async

// The parent commit's map-and-string implementation, kept verbatim (names
// prefixed, nothing else changed) as the reference the differential test in
// diff_test.go replays against: RBC instances keyed by a formatted
// "<tag>/<src>" string in five maps, iterations tagged "v/<k>" / "r/<k>",
// phases prefixed "pf." / "pj.", witness reports carried as "0,3,5" strings
// and re-parsed on every delivery.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"treeaa/internal/core"
	"treeaa/internal/pathsfinder"
	"treeaa/internal/tree"
)

// oracleMsg is a Bracha reliable-broadcast message for value type V. Tag
// namespaces independent instances (e.g. "val/3" for iteration 3's value
// broadcasts); Src is the original broadcaster, carried because every party
// broadcasts its own value concurrently.
type oracleMsg[V comparable] struct {
	Tag  string
	Kind byte
	Src  PartyID
	Val  V
}

// oracleDelivery reports one reliably delivered value.
type oracleDelivery[V comparable] struct {
	Tag string
	Src PartyID
	Val V
}

// oracleRBC runs any number of concurrent Bracha reliable broadcasts for one
// party, keyed by (tag, src). For n > 3t it guarantees: (Consistency) no
// two honest parties deliver different values for the same (tag, src);
// (Totality) if any honest party delivers, every honest party eventually
// delivers; (Validity) an honest broadcaster's value is eventually
// delivered by all honest parties.
//
// The classic thresholds: a party echoes the first INIT it sees from the
// broadcaster; sends READY upon n-t matching echoes or t+1 matching
// readies; delivers upon 2t+1 matching readies.
type oracleRBC[V comparable] struct {
	n, t int
	me   PartyID

	echoed    map[string]bool          // sent our echo for (tag,src)?
	readied   map[string]bool          // sent our ready?
	delivered map[string]bool          // delivered?
	echoes    map[string]map[PartyID]V // echo votes per (tag,src)
	readies   map[string]map[PartyID]V // ready votes per (tag,src)
}

// newOracleRBC returns the oracleRBC component for one party.
func newOracleRBC[V comparable](n, t int, me PartyID) *oracleRBC[V] {
	return &oracleRBC[V]{
		n: n, t: t, me: me,
		echoed:    make(map[string]bool),
		readied:   make(map[string]bool),
		delivered: make(map[string]bool),
		echoes:    make(map[string]map[PartyID]V),
		readies:   make(map[string]map[PartyID]V),
	}
}

func oracleKey(tag string, src PartyID) string { return fmt.Sprintf("%s/%d", tag, src) }

// Broadcast initiates this party's own broadcast under tag.
func (r *oracleRBC[V]) Broadcast(tag string, val V) []Message {
	return []Message{{To: Broadcast, Payload: oracleMsg[V]{Tag: tag, Kind: KindInit, Src: r.me, Val: val}}}
}

// Handle processes one incoming message. Non-oracleRBC payloads are ignored. It
// returns the protocol messages to send and any new deliveries.
func (r *oracleRBC[V]) Handle(m Message) (out []Message, deliveries []oracleDelivery[V]) {
	p, ok := m.Payload.(oracleMsg[V])
	if !ok {
		return nil, nil
	}
	key := oracleKey(p.Tag, p.Src)
	switch p.Kind {
	case KindInit:
		// Only the broadcaster itself may originate its INIT.
		if m.From != p.Src || r.echoed[key] {
			return nil, nil
		}
		r.echoed[key] = true
		out = append(out, Message{To: Broadcast, Payload: oracleMsg[V]{Tag: p.Tag, Kind: KindEcho, Src: p.Src, Val: p.Val}})
	case KindEcho:
		if r.echoes[key] == nil {
			r.echoes[key] = make(map[PartyID]V)
		}
		if _, dup := r.echoes[key][m.From]; dup {
			return nil, nil
		}
		r.echoes[key][m.From] = p.Val
		if !r.readied[key] {
			if v, c := oraclePlurality(r.echoes[key]); c >= r.n-r.t {
				r.readied[key] = true
				out = append(out, Message{To: Broadcast, Payload: oracleMsg[V]{Tag: p.Tag, Kind: KindReady, Src: p.Src, Val: v}})
			}
		}
	case KindReady:
		if r.readies[key] == nil {
			r.readies[key] = make(map[PartyID]V)
		}
		if _, dup := r.readies[key][m.From]; dup {
			return nil, nil
		}
		r.readies[key][m.From] = p.Val
		v, c := oraclePlurality(r.readies[key])
		if !r.readied[key] && c >= r.t+1 {
			r.readied[key] = true
			out = append(out, Message{To: Broadcast, Payload: oracleMsg[V]{Tag: p.Tag, Kind: KindReady, Src: p.Src, Val: v}})
		}
		if !r.delivered[key] && c >= 2*r.t+1 {
			r.delivered[key] = true
			deliveries = append(deliveries, oracleDelivery[V]{Tag: p.Tag, Src: p.Src, Val: v})
		}
	}
	return out, deliveries
}

// oraclePlurality returns the most endorsed value and its count. Byzantine
// senders can contribute at most one vote each, so for the thresholds used
// the oraclePlurality value is unique whenever it matters.
func oraclePlurality[V comparable](votes map[PartyID]V) (best V, count int) {
	counts := make(map[V]int, len(votes))
	for _, v := range votes {
		counts[v]++
	}
	for v, c := range counts {
		if c > count {
			best, count = v, c
		}
	}
	return best, count
}

// oracleAA is the iteration skeleton shared by asynchronous Approximate
// Agreement on reals and on trees, following the classic structure of
// Abraham–Amit–Dolev and Nowak–Rybicki [33]:
//
// in each iteration k, every party (1) reliably broadcasts its current
// value; (2) upon oracleRBC-delivering n-t iteration-k values, reliably
// broadcasts a *report* naming the senders it has; (3) accepts a report
// once all named senders' values have been locally oracleRBC-delivered; (4) upon
// accepting n-t reports, updates its value from the union of the named
// senders' values and moves to iteration k+1.
//
// The witness property: two honest parties' accepted report sets share at
// least n-2t >= t+1 reporters, whose (oracleRBC-consistent) value sets are
// contained in both unions — so any two honest unions share at least n-t
// values, which is what the trimmed update rules need to contract.
//
// Values are oracleRBC'd under tag "v/<k>", reports under "r/<k>" with the named
// senders encoded canonically ("0,3,5").
type oracleAA[V comparable] struct {
	n, t  int
	me    PartyID
	iters int
	// update maps the multiset of collected values to the next value.
	update func([]V) V

	val     V
	valRBC  *oracleRBC[V]
	repRBC  *oracleRBC[string]
	iter    int
	vals    map[int]map[PartyID]V      // iteration -> src -> delivered value
	reports map[int]map[PartyID]string // iteration -> reporter -> named set
	sent    map[int]bool               // report sent for iteration?
	history []V
	done    bool
}

// newOracleAA builds the skeleton. iters is the fixed iteration budget;
// update is the domain-specific contraction rule.
func newOracleAA[V comparable](n, t int, me PartyID, input V, iters int, update func([]V) V) *oracleAA[V] {
	return &oracleAA[V]{
		n: n, t: t, me: me, iters: iters, update: update,
		val:     input,
		valRBC:  newOracleRBC[V](n, t, me),
		repRBC:  newOracleRBC[string](n, t, me),
		iter:    1,
		vals:    make(map[int]map[PartyID]V),
		reports: make(map[int]map[PartyID]string),
		sent:    make(map[int]bool),
	}
}

// Init implements Machine.
func (m *oracleAA[V]) Init() []Message {
	if m.iters == 0 {
		m.done = true
		return nil
	}
	return m.valRBC.Broadcast(oracleValTag(1), m.val)
}

// Deliver implements Machine.
func (m *oracleAA[V]) Deliver(msg Message) []Message {
	var out []Message
	o1, valDeliveries := m.valRBC.Handle(msg)
	out = append(out, o1...)
	for _, d := range valDeliveries {
		k, ok := oracleParseTag(d.Tag, "v/")
		if !ok {
			continue
		}
		if m.vals[k] == nil {
			m.vals[k] = make(map[PartyID]V)
		}
		m.vals[k][d.Src] = d.Val
	}
	o2, repDeliveries := m.repRBC.Handle(msg)
	out = append(out, o2...)
	for _, d := range repDeliveries {
		k, ok := oracleParseTag(d.Tag, "r/")
		if !ok {
			continue
		}
		if m.reports[k] == nil {
			m.reports[k] = make(map[PartyID]string)
		}
		m.reports[k][d.Src] = d.Val
	}
	out = append(out, m.progress()...)
	return out
}

// progress advances the iteration state machine as far as the collected
// deliveries allow (multiple iterations can complete on one delivery when
// the scheduler batched this party's traffic).
func (m *oracleAA[V]) progress() []Message {
	var out []Message
	for !m.done {
		k := m.iter
		// Step 2: send the report once n-t iteration-k values arrived.
		if !m.sent[k] && len(m.vals[k]) >= m.n-m.t {
			m.sent[k] = true
			out = append(out, m.repRBC.Broadcast(oracleRepTag(k), oracleEncodeSet(m.vals[k]))...)
		}
		// Steps 3-4: count accepted reports.
		accepted := m.acceptedSenders(k)
		if accepted == nil {
			return out
		}
		var union []V
		for src := range accepted {
			union = append(union, m.vals[k][src])
		}
		m.val = m.update(union)
		m.history = append(m.history, m.val)
		m.iter++
		if m.iter > m.iters {
			m.done = true
			return out
		}
		out = append(out, m.valRBC.Broadcast(oracleValTag(m.iter), m.val)...)
	}
	return out
}

// acceptedSenders returns the union of senders named by n-t accepted
// reports for iteration k, or nil if fewer than n-t reports are acceptable
// yet. A report is acceptable when every sender it names has been locally
// delivered for iteration k.
func (m *oracleAA[V]) acceptedSenders(k int) map[PartyID]bool {
	acceptable := 0
	union := make(map[PartyID]bool)
	for _, enc := range m.reports[k] {
		ids, err := oracleDecodeSet(enc)
		if err != nil {
			continue // malformed Byzantine report: never acceptable
		}
		all := true
		for _, src := range ids {
			if _, ok := m.vals[k][src]; !ok {
				all = false
				break
			}
		}
		if !all {
			continue
		}
		acceptable++
		for _, src := range ids {
			union[src] = true
		}
	}
	if acceptable < m.n-m.t {
		return nil
	}
	return union
}

// Output implements Machine.
func (m *oracleAA[V]) Output() (any, bool) {
	if !m.done {
		return nil, false
	}
	return m.val, true
}

// History returns the value after each completed iteration (a copy).
func (m *oracleAA[V]) History() []V {
	out := make([]V, len(m.history))
	copy(out, m.history)
	return out
}

func oracleValTag(k int) string { return "v/" + strconv.Itoa(k) }
func oracleRepTag(k int) string { return "r/" + strconv.Itoa(k) }

func oracleParseTag(tag, prefix string) (int, bool) {
	if !strings.HasPrefix(tag, prefix) {
		return 0, false
	}
	k, err := strconv.Atoi(tag[len(prefix):])
	if err != nil || k < 1 {
		return 0, false
	}
	return k, true
}

// oracleEncodeSet canonically encodes the key set of a delivery map ("0,2,5").
func oracleEncodeSet[V comparable](vals map[PartyID]V) string {
	ids := make([]int, 0, len(vals))
	for src := range vals {
		ids = append(ids, int(src))
	}
	sort.Ints(ids)
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.Itoa(id)
	}
	return strings.Join(parts, ",")
}

// oracleDecodeSet parses an encoded sender set, rejecting malformed input.
func oracleDecodeSet(enc string) ([]PartyID, error) {
	if enc == "" {
		return nil, nil
	}
	parts := strings.Split(enc, ",")
	out := make([]PartyID, 0, len(parts))
	for _, p := range parts {
		id, err := strconv.Atoi(p)
		if err != nil || id < 0 {
			return nil, fmt.Errorf("async: bad report entry %q", p)
		}
		out = append(out, PartyID(id))
	}
	return out, nil
}

// newOracleRealAA returns an asynchronous AA machine on real values: the update
// rule sorts the collected multiset, discards the t lowest and t highest,
// and adopts the midpoint of the remaining extremes — halving the honest
// range per iteration. iters should be HalvingIterations(d, eps).
func newOracleRealAA(n, t int, me PartyID, input float64, iters int) *oracleAA[float64] {
	return newOracleAA(n, t, me, input, iters, func(vals []float64) float64 {
		sort.Float64s(vals)
		trim := t
		if 2*trim >= len(vals) {
			trim = (len(vals) - 1) / 2
		}
		w := vals[trim : len(vals)-trim]
		return (w[0] + w[len(w)-1]) / 2
	})
}

// Phase tags namespacing the two chained oracleAA instances' oracleRBC traffic.
const (
	oraclePrefixPF = "pf."
	oraclePrefixPJ = "pj."
)

// oraclePipeline is one party's asynchronous TreeAA execution.
type oraclePipeline struct {
	tr    *tree.Tree
	n, t  int
	me    PartyID
	input tree.VertexID
	list  *tree.EulerList

	pfIters   int
	projIters int

	phase1 *oracleAA[float64]
	path   []tree.VertexID
	phase2 *oracleAA[float64]
	// buf2 holds projection-phase messages that arrived before this party's
	// own phase 1 decided; they replay into phase2 the moment it exists.
	buf2 []Message

	out  tree.VertexID
	done bool
}

// newOraclePipeline validates the configuration and builds the machine. The
// parameters mirror core.Config: n > 3t whenever t > 0, and the input must
// be a vertex of tr.
func newOraclePipeline(tr *tree.Tree, n, t int, me PartyID, input tree.VertexID) (*oraclePipeline, error) {
	if tr == nil {
		return nil, fmt.Errorf("async: nil tree")
	}
	if n < 1 {
		return nil, fmt.Errorf("async: n = %d, want >= 1", n)
	}
	if t < 0 {
		return nil, fmt.Errorf("async: t = %d, want >= 0", t)
	}
	if t > 0 && n <= 3*t {
		return nil, fmt.Errorf("async: n = %d does not satisfy n > 3t for t = %d", n, t)
	}
	if me < 0 || int(me) >= n {
		return nil, fmt.Errorf("async: party id %d out of range [0, %d)", int(me), n)
	}
	if !tr.Valid(input) {
		return nil, fmt.Errorf("async: invalid input vertex %d", int(input))
	}
	p := &oraclePipeline{tr: tr, n: n, t: t, me: me, input: input}
	d, _, _ := tr.Diameter()
	if d <= 1 {
		p.out, p.done = input, true
		return p, nil
	}
	list, err := tree.ListConstruction(tr, tr.Root())
	if err != nil {
		return nil, fmt.Errorf("async: %w", err)
	}
	p.list = list
	// The same iteration budgets as the synchronous phases, in asynchronous
	// halving iterations: indices span [1, |L|] with |L| <= 2|V|, positions
	// span [1, d+1] with range d.
	p.pfIters = HalvingIterations(float64(2*tr.NumVertices()), 1)
	p.projIters = HalvingIterations(float64(d), 1)
	p.phase1 = newOracleRealAA(n, t, me, float64(list.FirstIndex(input)), p.pfIters)
	return p, nil
}

// Init implements Machine.
func (p *oraclePipeline) Init() []Message {
	if p.done {
		return nil
	}
	return oraclePrefixTags(oraclePrefixPF, p.phase1.Init())
}

// Deliver implements Machine. Messages route to the phase their tag prefix
// names; anything else (Byzantine garbage) is ignored.
func (p *oraclePipeline) Deliver(m Message) []Message {
	phase, inner, ok := oracleStripTag(m)
	if !ok || p.phase1 == nil {
		return nil
	}
	var out []Message
	switch phase {
	case PhasePathsFinder:
		// Phase 1 keeps echoing after it decides — peers may still need the
		// amplification — so deliveries route unconditionally.
		out = oraclePrefixTags(oraclePrefixPF, p.phase1.Deliver(inner))
		if p.phase2 == nil {
			if j, decided := p.phase1.Output(); decided {
				out = append(out, p.startProjection(j.(float64))...)
			}
		}
	case PhaseProjection:
		if p.phase2 == nil {
			p.buf2 = append(p.buf2, inner)
			return out
		}
		out = append(out, oraclePrefixTags(oraclePrefixPJ, p.phase2.Deliver(inner))...)
	}
	if !p.done && p.phase2 != nil {
		if j, decided := p.phase2.Output(); decided {
			p.out, _ = core.DecideVertex(p.path, j.(float64))
			p.done = true
		}
	}
	return out
}

// startProjection decodes phase 1's index agreement into this party's root
// path, builds phase 2 on the projected position, and replays any buffered
// projection traffic through it.
func (p *oraclePipeline) startProjection(j float64) []Message {
	idx := pathsfinder.ClampIndex(p.list, j)
	path, err := p.list.PathFromRoot(idx)
	if err != nil {
		// Unreachable after ClampIndex; decide defensively at the root
		// rather than deadlock the other parties' witness thresholds.
		path = []tree.VertexID{p.list.Root()}
	}
	p.path = path
	pos, _ := p.tr.ProjectOntoPath(path, p.input)
	p.phase2 = newOracleRealAA(p.n, p.t, p.me, float64(pos+1), p.projIters)
	out := oraclePrefixTags(oraclePrefixPJ, p.phase2.Init())
	buffered := p.buf2
	p.buf2 = nil
	for _, m := range buffered {
		out = append(out, oraclePrefixTags(oraclePrefixPJ, p.phase2.Deliver(m))...)
	}
	return out
}

// Output implements Machine; the value is a tree.VertexID.
func (p *oraclePipeline) Output() (any, bool) {
	if !p.done {
		return nil, false
	}
	return p.out, true
}

// Path returns the root path this party decoded from phase 1 (nil until
// then); read-only, for tests and invariant probes.
func (p *oraclePipeline) Path() []tree.VertexID { return p.path }

// Histories returns each phase's per-iteration value history (copies; nil
// for a phase that has not started, or on trivial trees where neither phase
// runs). Read-only, for tests and invariant probes: the checker asserts
// monotone non-expansion of the honest-value interval across iterations.
func (p *oraclePipeline) Histories() (pathsFinder, projection []float64) {
	if p.phase1 != nil {
		pathsFinder = p.phase1.History()
	}
	if p.phase2 != nil {
		projection = p.phase2.History()
	}
	return pathsFinder, projection
}

// DeliveryBudget bounds the deliveries an execution can consume across the
// whole pipeline: per iteration there are 2n oracleRBC instances (a value and a
// report per broadcaster), each delivering at most 1 init + n echoes + n
// readies = 2n+1 messages to each of the n parties — 2n²(2n+1) deliveries
// per iteration exactly. The extra half absorbs duplicate-suppressed
// traffic that still costs a delivery.
func (p *oraclePipeline) DeliveryBudget() int {
	iters := p.pfIters + p.projIters
	if iters == 0 {
		return 64
	}
	return 3*p.n*p.n*iters*(2*p.n+1) + 64
}

// ---- tag namespacing

// oraclePrefixTags namespaces outgoing oracleRBC payload tags with the phase prefix,
// so the two oracleAA instances' concurrent broadcasts cannot collide.
func oraclePrefixTags(prefix string, msgs []Message) []Message {
	for i := range msgs {
		switch q := msgs[i].Payload.(type) {
		case oracleMsg[float64]:
			q.Tag = prefix + q.Tag
			msgs[i].Payload = q
		case oracleMsg[string]:
			q.Tag = prefix + q.Tag
			msgs[i].Payload = q
		}
	}
	return msgs
}

// oracleStripTag classifies an incoming message by phase prefix and returns it
// with the inner (unprefixed) tag restored.
func oracleStripTag(m Message) (phase byte, inner Message, ok bool) {
	switch q := m.Payload.(type) {
	case oracleMsg[float64]:
		phase, q.Tag, ok = oracleSplitPhase(q.Tag)
		m.Payload = q
	case oracleMsg[string]:
		phase, q.Tag, ok = oracleSplitPhase(q.Tag)
		m.Payload = q
	default:
		return 0, m, false
	}
	return phase, m, ok
}

func oracleSplitPhase(tag string) (byte, string, bool) {
	if len(tag) > len(oraclePrefixPF) && tag[:len(oraclePrefixPF)] == oraclePrefixPF {
		return PhasePathsFinder, tag[len(oraclePrefixPF):], true
	}
	if len(tag) > len(oraclePrefixPJ) && tag[:len(oraclePrefixPJ)] == oraclePrefixPJ {
		return PhaseProjection, tag[len(oraclePrefixPJ):], true
	}
	return 0, tag, false
}
