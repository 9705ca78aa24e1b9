package shard

import (
	"context"
	"errors"
	"testing"

	"pis/internal/core"
	"pis/internal/graph"
)

// fakeShard answers SearchCtx with search; SearchKNNCtx is unused.
type fakeShard struct {
	search func(ctx context.Context) (core.Result, error)
}

func (f fakeShard) SearchCtx(ctx context.Context, _ *graph.Graph, _ float64) (core.Result, error) {
	return f.search(ctx)
}

func (f fakeShard) SearchKNNCtx(context.Context, *graph.Graph, int, float64, float64) ([]core.Neighbor, error) {
	return nil, nil
}

// TestFanOutSearchReturnsTriggeringError: shard 0 blocks until the
// fan-out cancels it and then reports context.Canceled; shard 1 fails
// with its own error. The caller must see shard 1's error, the one that
// caused the cancellation, although shard 0 comes first.
func TestFanOutSearchReturnsTriggeringError(t *testing.T) {
	errShard := errors.New("shard 1 failed")
	shards := []Searcher{
		fakeShard{func(ctx context.Context) (core.Result, error) {
			<-ctx.Done()
			return core.Result{}, ctx.Err()
		}},
		fakeShard{func(context.Context) (core.Result, error) {
			return core.Result{}, errShard
		}},
	}
	for i := 0; i < 20; i++ {
		_, err := FanOutSearch(context.Background(), shards, nil, 0)
		if !errors.Is(err, errShard) {
			t.Fatalf("run %d: error %v, want %v", i, err, errShard)
		}
	}

	// A parent context that fired still wins over any shard error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := FanOutSearch(ctx, shards, nil, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("parent canceled: error %v, want context.Canceled", err)
	}
}
