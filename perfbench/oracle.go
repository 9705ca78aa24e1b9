package main

// Oracle checks. The oracle is the single-process pis.New heap database
// with exact verification; every answer the served backend gave must
// equal its answer. A mismatch aborts the run: it is a wrong answer,
// never a failed request.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"pis"
	"pis/server"
)

// answer is one search answer set in id order.
type answer struct {
	ids   []int32
	dists []float64
}

func fromResult(r pis.Result, idOf func(int32) int32) answer {
	a := answer{ids: make([]int32, len(r.Answers)), dists: slices.Clone(r.Distances)}
	for i, id := range r.Answers {
		a.ids[i] = idOf(id)
	}
	return a.sorted()
}

func fromResponse(resp server.SearchResponse) answer {
	return answer{ids: resp.Answers, dists: resp.Distances}.sorted()
}

func (a answer) sorted() answer {
	idx := make([]int, len(a.ids))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(x, y int) int { return int(a.ids[x]) - int(a.ids[y]) })
	out := answer{ids: make([]int32, len(idx)), dists: make([]float64, len(idx))}
	for i, j := range idx {
		out.ids[i] = a.ids[j]
		if j < len(a.dists) {
			out.dists[i] = a.dists[j]
		}
	}
	return out
}

func (a answer) equal(b answer) bool {
	return slices.Equal(a.ids, b.ids) && slices.Equal(a.dists, b.dists)
}

func (a answer) String() string {
	var sb strings.Builder
	for i, id := range a.ids {
		if i == 8 {
			fmt.Fprintf(&sb, " …(%d)", len(a.ids))
			break
		}
		fmt.Fprintf(&sb, " %d:%g", id, a.dists[i])
	}
	return "[" + strings.TrimSpace(sb.String()) + "]"
}

func identity(id int32) int32 { return id }

// checkAgainstOracle compares every answered search of the runs with
// the oracle built over the same graphs.
func checkAgainstOracle(b *bench, _ *deployment, runs []*run) error {
	oracle, err := pis.New(b.graphs, servedOptions())
	if err != nil {
		return fmt.Errorf("build oracle: %w", err)
	}
	defer oracle.Close()
	type pending struct {
		o    *op
		resp server.SearchResponse
	}
	bySigma := map[float64][]pending{}
	for _, r := range runs {
		for i := range r.sent {
			o, s := &r.ops[i], &r.samples[i]
			if o.kind != opSearch || !s.ok() {
				continue
			}
			p := pending{o: o}
			if err := json.Unmarshal(s.body, &p.resp); err != nil {
				return fmt.Errorf("decode search response: %w", err)
			}
			bySigma[o.sigma] = append(bySigma[o.sigma], p)
		}
	}
	if len(bySigma) == 0 {
		return fmt.Errorf("no answered search to check")
	}
	for sigma, ps := range bySigma {
		qs := make([]*pis.Graph, len(ps))
		for i, p := range ps {
			qs[i] = b.queries[p.o.query]
		}
		for i, r := range oracle.SearchBatch(qs, sigma, runtime.GOMAXPROCS(0)) {
			want := fromResult(r, identity)
			if got := fromResponse(ps[i].resp); !got.equal(want) {
				return fmt.Errorf("query %d σ=%g: served %v, oracle %v", ps[i].o.query, sigma, got, want)
			}
		}
	}
	return nil
}

// mixedChecks is how many pool queries the final mixed-durable check
// runs, each at σ 1, 2 and 3 plus one kNN.
const mixedChecks = 12

// checkMixed checks mixed-durable at the end of the window: every
// acknowledged insert id is unique, each shard compacted at least
// twice, and a fixed query set answers like an oracle built from the
// live graphs — through the server, and again after closing the store
// and reopening it with pis.OpenSharded.
func checkMixed(b *bench, dep *deployment, runs []*run) error {
	win := runs[len(runs)-1]
	ids := map[int32]bool{}
	for i := range b.graphs {
		ids[int32(i)] = true
	}
	for i := range win.sent {
		o, s := &win.ops[i], &win.samples[i]
		if o.kind != opInsert || !s.ok() {
			continue
		}
		var resp server.InsertResponse
		if err := json.Unmarshal(s.body, &resp); err != nil {
			return fmt.Errorf("decode insert response: %w", err)
		}
		if ids[resp.ID] {
			return fmt.Errorf("insert acknowledged with id %d, already taken", resp.ID)
		}
		ids[resp.ID] = true
	}

	db := dep.backend.(*pis.Sharded)
	live := db.LiveIDs()
	graphs := make([]*pis.Graph, len(live))
	for i, id := range live {
		if graphs[i] = db.Graph(id); graphs[i] == nil {
			return fmt.Errorf("live id %d has no graph", id)
		}
	}
	oracle, err := pis.New(graphs, servedOptions())
	if err != nil {
		return fmt.Errorf("build oracle: %w", err)
	}
	defer oracle.Close()
	idOf := func(i int32) int32 { return live[i] }

	pool := b.pool[:min(mixedChecks, len(b.pool))]
	for _, qi := range pool {
		q := b.queries[qi]
		for _, sigma := range []float64{1, 2, 3} {
			var resp server.SearchResponse
			if err := postJSON(dep.urls[0]+"/search", server.SearchRequest{Query: server.EncodeGraph(q), Sigma: sigma}, &resp); err != nil {
				return err
			}
			want := fromResult(oracle.Search(q, sigma), idOf)
			if got := fromResponse(resp); !got.equal(want) {
				return fmt.Errorf("final check, query %d σ=%g: served %v, oracle %v", qi, sigma, got, want)
			}
		}
		var kr server.KNNResponse
		if err := postJSON(dep.urls[0]+"/knn", server.KNNRequest{Query: server.EncodeGraph(q), K: knnK, MaxSigma: knnSigma}, &kr); err != nil {
			return err
		}
		var got, want []float64
		for _, n := range kr.Neighbors {
			got = append(got, n.Distance)
		}
		for _, n := range oracle.SearchKNN(q, knnK, knnSigma) {
			want = append(want, n.Distance)
		}
		if !slices.Equal(got, want) {
			return fmt.Errorf("final check, kNN query %d: served distances %v, oracle %v", qi, got, want)
		}
	}

	if err := dep.close(); err != nil {
		return fmt.Errorf("close store: %w", err)
	}
	reopened, err := pis.OpenSharded(dep.dataDir, servedOptions())
	if err != nil {
		return fmt.Errorf("reopen store: %w", err)
	}
	defer reopened.Close()
	if got := reopened.LiveIDs(); !slices.Equal(got, live) {
		return fmt.Errorf("reopened store has %d live graphs, %d before close", len(got), len(live))
	}
	for _, qi := range pool {
		q := b.queries[qi]
		for _, sigma := range []float64{1, 2, 3} {
			want := fromResult(oracle.Search(q, sigma), idOf)
			if got := fromResult(reopened.Search(q, sigma), identity); !got.equal(want) {
				return fmt.Errorf("after reopen, query %d σ=%g: %v, oracle %v", qi, sigma, got, want)
			}
		}
	}
	return nil
}

func postJSON(url string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	r, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: status %d", url, r.StatusCode)
	}
	return json.NewDecoder(r.Body).Decode(resp)
}

// shardSnapshotSeqs returns each shard's newest snapshot sequence
// number under a durable store root. Every compaction writes a new
// snapshot, so the difference across the window counts compactions
// per shard.
func shardSnapshotSeqs(root string) ([]int, error) {
	shards, err := filepath.Glob(filepath.Join(root, "shard-*"))
	if err != nil {
		return nil, err
	}
	slices.Sort(shards)
	seqs := make([]int, len(shards))
	for i, dir := range shards {
		snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.pissnap"))
		if err != nil {
			return nil, err
		}
		for _, s := range snaps {
			n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(s), "snap-"), ".pissnap"))
			if err == nil && n > seqs[i] {
				seqs[i] = n
			}
		}
	}
	if len(seqs) == 0 {
		return nil, fmt.Errorf("no shard directories under %s", root)
	}
	return seqs, nil
}
