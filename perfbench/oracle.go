package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"

	"tabby/internal/corpus"
	"tabby/internal/sinks"
)

// The output oracle. Its expectations come only from hand-written data:
// the planted-chain manifests of the Table IX components (ChainSpec with
// ExpectTabby), the URLDNS chain of the modeled runtime, the Table VII
// sink registry, and — for queries — rows the reference interpreter
// computes on a heap load of the same snapshot. Nothing the pipeline
// under test produces feeds the expected side.

// endpoint is a chain reduced to its source method key and the registry
// identity ("class.method") of its sink.
type endpoint struct {
	Source string
	Sink   string
}

func (e endpoint) String() string { return e.Source + " => " + e.Sink }

// urldns is the modeled runtime's own gadget chain (Table I).
var urldns = endpoint{
	Source: "java.util.HashMap#readObject(java.io.ObjectInputStream)",
	Sink:   "java.net.InetAddress.getByName",
}

// rtSinkImpls maps runtime classes of the RT model to the registry
// class whose sink method they implement: a chain may end at the
// concrete class while the registry names the interface.
var rtSinkImpls = map[string]string{
	"javax.naming.InitialContext": "javax.naming.Context",
}

// nameSourced are the runtime model's chains that start at a method
// which is no deserialization source but carries a source's name. A
// request's source_names replaces the source test with a METHOD_NAME
// match (pathfinder.Options.SourceMethodNames: "accepts exactly the
// nodes whose METHOD_NAME is one of these values"), so asking for
// readObject also accepts the ObjectInput API methods, each of which
// reaches the other, a JDV sink, over an ALIAS edge.
var nameSourced = []endpoint{
	{Source: "java.io.ObjectInput#readObject()", Sink: "java.io.ObjectInputStream.readObject"},
	{Source: "java.io.ObjectInputStream#readObject()", Sink: "java.io.ObjectInput.readObject"},
}

type oracle struct {
	expected map[endpoint]bool
	byName   map[endpoint]bool // expected plus nameSourced
	sinkType map[string]string // registry key → SINK_TYPE
}

func newOracle() *oracle {
	o := &oracle{expected: map[endpoint]bool{urldns: true}, byName: map[endpoint]bool{}, sinkType: map[string]string{}}
	for _, c := range corpus.Components() {
		for _, s := range c.Chains {
			if s.ExpectTabby {
				o.expected[endpoint{string(s.Source), s.SinkClass + "." + s.SinkMethod}] = true
			}
		}
	}
	for _, s := range sinks.DefaultSinks() {
		o.sinkType[s.Key()] = string(s.Type)
	}
	for e := range o.expected {
		o.byName[e] = true
	}
	for _, e := range nameSourced {
		o.byName[e] = true
	}
	return o
}

// splitMethodKey splits "pkg.Class#name(params)" into class and name.
func splitMethodKey(key string) (class, name string, ok bool) {
	i := strings.IndexByte(key, '#')
	if i < 0 {
		return "", "", false
	}
	name = key[i+1:]
	if j := strings.IndexByte(name, '('); j >= 0 {
		name = name[:j]
	}
	return key[:i], name, true
}

// chainOut is the part of a reported chain the oracle reads.
type chainOut struct {
	Names    []string `json:"names"`
	SinkType string   `json:"sink_type"`
}

// endpointOf reduces a chain to its endpoint and checks that the sink is
// a registry sink whose type matches the chain's reported type.
func (o *oracle) endpointOf(c chainOut) (endpoint, error) {
	if len(c.Names) < 2 {
		return endpoint{}, fmt.Errorf("chain of %d names", len(c.Names))
	}
	class, name, ok := splitMethodKey(c.Names[len(c.Names)-1])
	if !ok {
		return endpoint{}, fmt.Errorf("sink %q is not a method key", c.Names[len(c.Names)-1])
	}
	key := class + "." + name
	typ, ok := o.sinkType[key]
	if !ok {
		if iface, found := rtSinkImpls[class]; found {
			key = iface + "." + name
			typ, ok = o.sinkType[key]
		}
	}
	if !ok {
		return endpoint{}, fmt.Errorf("chain ends at %s, which is no registry sink", c.Names[len(c.Names)-1])
	}
	if c.SinkType != typ {
		return endpoint{}, fmt.Errorf("chain to %s reports sink type %q, registry says %q", key, c.SinkType, typ)
	}
	return endpoint{Source: c.Names[0], Sink: key}, nil
}

// chainFilter is the part of a /v1/chains request that restricts the
// answer.
type chainFilter struct {
	MaxDepth    int
	MaxChains   int
	SinkType    string
	SinkNames   []string
	SourceNames []string
}

// unfiltered reports whether the request asks for every chain at a depth
// the manifests are complete at (the default depth, 12, or deeper).
func (f chainFilter) unfiltered() bool {
	return f.SinkType == "" && len(f.SinkNames) == 0 && len(f.SourceNames) == 0 && f.MaxChains == 0 && (f.MaxDepth == 0 || f.MaxDepth >= 12)
}

// admits reports whether an expected endpoint satisfies the filter's
// name and type restrictions (depth and count caps aside).
func (o *oracle) admits(f chainFilter, e endpoint) bool {
	if f.SinkType != "" && o.sinkType[e.Sink] != f.SinkType {
		return false
	}
	if len(f.SinkNames) > 0 {
		name := e.Sink[strings.LastIndexByte(e.Sink, '.')+1:]
		if !contains(f.SinkNames, name) {
			return false
		}
	}
	if len(f.SourceNames) > 0 {
		_, name, _ := splitMethodKey(e.Source)
		if !contains(f.SourceNames, name) {
			return false
		}
	}
	return true
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// checkChains verifies one chain report against the manifests under
// filter f. Every reported endpoint must be expected and obey the
// filter; when the filter cannot have hidden an expected chain (full
// depth, no count cap hit), every admitted expected endpoint must be
// reported too.
func (o *oracle) checkChains(f chainFilter, chains []chainOut, truncated bool) error {
	maxDepth := f.MaxDepth
	if maxDepth == 0 {
		maxDepth = 12
	}
	expected := o.expected
	if len(f.SourceNames) > 0 {
		expected = o.byName
	}
	got := map[endpoint]bool{}
	var errs []string
	for _, c := range chains {
		e, err := o.endpointOf(c)
		if err != nil {
			errs = append(errs, err.Error())
			continue
		}
		if !expected[e] {
			errs = append(errs, "unexpected chain "+e.String())
			continue
		}
		if len(c.Names) > maxDepth {
			errs = append(errs, fmt.Sprintf("chain %s has %d methods, max_depth %d", e, len(c.Names), maxDepth))
		}
		if !o.admits(f, e) {
			errs = append(errs, "chain "+e.String()+" violates the request's sink/source filter")
		}
		got[e] = true
	}
	if f.MaxChains > 0 && len(chains) > f.MaxChains {
		errs = append(errs, fmt.Sprintf("%d chains returned, max_chains %d", len(chains), f.MaxChains))
	}
	if maxDepth >= 12 && !truncated {
		var missing []string
		for e := range expected {
			if o.admits(f, e) && !got[e] {
				missing = append(missing, e.String())
			}
		}
		sort.Strings(missing)
		for _, m := range missing {
			errs = append(errs, "missing expected chain "+m)
		}
	} else if f.unfiltered() && truncated {
		errs = append(errs, "unfiltered search truncated")
	}
	if len(errs) > 0 {
		sort.Strings(errs)
		if len(errs) > 4 {
			errs = append(errs[:4], fmt.Sprintf("... %d more", len(errs)-4))
		}
		return errors.New(strings.Join(errs, "; "))
	}
	return nil
}

// checkChainsBody decodes and checks one /v1/chains response body.
func (o *oracle) checkChainsBody(f chainFilter, body []byte) error {
	var cb struct {
		Chains    []chainOut `json:"chains"`
		Truncated bool       `json:"truncated"`
	}
	if err := json.Unmarshal(body, &cb); err != nil {
		return fmt.Errorf("decode chains response: %w", err)
	}
	return o.checkChains(f, cb.Chains, cb.Truncated)
}

// canonRows re-encodes rows through a JSON round trip so values compare
// the way the wire carries them; unless ordered, rows are sorted, since
// a query without ORDER BY fixes no row order.
func canonRows(rows any, ordered bool) (string, error) {
	raw, err := json.Marshal(rows)
	if err != nil {
		return "", err
	}
	var list []json.RawMessage
	if err := json.Unmarshal(raw, &list); err != nil {
		return "", err
	}
	keys := make([]string, len(list))
	for i, r := range list {
		var v any
		if err := json.Unmarshal(r, &v); err != nil {
			return "", err
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(v); err != nil {
			return "", err
		}
		keys[i] = strings.TrimSpace(buf.String())
	}
	if !ordered {
		sort.Strings(keys)
	}
	return strings.Join(keys, "\n"), nil
}

// checkRows compares a /v1/query response's rows with the reference
// interpreter's canonical rows.
func checkRows(want string, gotRows json.RawMessage, ordered bool) error {
	got, err := canonRows(gotRows, ordered)
	if err != nil {
		return fmt.Errorf("decode query rows: %w", err)
	}
	if got != want {
		return fmt.Errorf("query rows differ from the reference interpreter (%d vs %d rows)", strings.Count(got, "\n")+1, strings.Count(want, "\n")+1)
	}
	return nil
}

// selfTest shows the oracle can fail: it must accept the expected set,
// and reject a dropped chain, an added fake chain, an unplanted
// endpoint, a filter violation and a wrong query row.
func (o *oracle) selfTest() error {
	var good []chainOut
	var keys []endpoint
	for e := range o.expected {
		keys = append(keys, e)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	for _, e := range keys {
		good = append(good, o.fakeChain(e))
	}
	if err := o.checkChains(chainFilter{}, good, false); err != nil {
		return fmt.Errorf("oracle self-test: expected set rejected: %v", err)
	}
	var fake *corpus.ChainSpec
	for _, c := range corpus.Components() {
		for i := range c.Chains {
			if c.Chains[i].Category == corpus.CatFake && !c.Chains[i].ExpectTabby {
				fake = &c.Chains[i]
				break
			}
		}
		if fake != nil {
			break
		}
	}
	if fake == nil {
		return errors.New("oracle self-test: no fake chain in the manifests")
	}
	fakeEnd := endpoint{string(fake.Source), fake.SinkClass + "." + fake.SinkMethod}
	unplanted := endpoint{"org.example.Unplanted#readObject(java.io.ObjectInputStream)", "java.lang.Runtime.exec"}
	long := o.fakeChain(keys[0])
	long.Names = append(append([]string{long.Names[0]}, make([]string, 12)...), long.Names[1:]...)
	for i := 1; i <= 12; i++ {
		long.Names[i] = fmt.Sprintf("x.Hop%d#hop()", i)
	}
	cases := []struct {
		name   string
		f      chainFilter
		chains []chainOut
	}{
		{"dropped expected chain", chainFilter{}, good[1:]},
		{"added fake chain", chainFilter{}, append(append([]chainOut(nil), good...), o.fakeChain(fakeEnd))},
		{"added unplanted endpoint", chainFilter{}, append(append([]chainOut(nil), good...), o.fakeChain(unplanted))},
		{"name-sourced chain without source_names", chainFilter{}, append(append([]chainOut(nil), good...), o.fakeChain(nameSourced[0]))},
		{"sink type filter violated", chainFilter{SinkType: "JNDI"}, good},
		{"depth cap violated", chainFilter{MaxDepth: 8}, []chainOut{long}},
		{"wrong sink type label", chainFilter{}, append([]chainOut{{Names: good[0].Names, SinkType: "FILE"}}, good[1:]...)},
	}
	for _, c := range cases {
		if o.checkChains(c.f, c.chains, false) == nil {
			return fmt.Errorf("oracle self-test: %s was accepted", c.name)
		}
	}
	want, err := canonRows([][]any{{"a#m()", true, 3}, {"b#n()", false, 4}}, false)
	if err != nil {
		return err
	}
	if err := checkRows(want, json.RawMessage(`[["b#n()",false,4],["a#m()",true,3]]`), false); err != nil {
		return fmt.Errorf("oracle self-test: reordered rows rejected: %v", err)
	}
	if checkRows(want, json.RawMessage(`[["a#m()",true,3],["b#n()",true,4]]`), false) == nil {
		return errors.New("oracle self-test: a wrong query row was accepted")
	}
	return nil
}

// fakeChain builds a two-method chain with endpoint e, as a report
// would carry it.
func (o *oracle) fakeChain(e endpoint) chainOut {
	i := strings.LastIndexByte(e.Sink, '.')
	return chainOut{
		Names:    []string{e.Source, e.Sink[:i] + "#" + e.Sink[i+1:] + "(java.lang.String)"},
		SinkType: o.sinkType[e.Sink],
	}
}
