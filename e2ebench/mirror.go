package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"mecache/internal/dynamic"
	"mecache/internal/game"
	"mecache/internal/mec"
	"mecache/internal/obs"
	"mecache/internal/server"
	"mecache/internal/topology"
	"mecache/internal/workload"
)

// mirror replays the daemon's command log in this process through the
// exported functions mecd's event loop calls (internal/server/loop.go):
// mec.Market.AppendProvider/RemoveProvider, dynamic.BestResponseWithLoads
// and dynamic.Reequilibrate. Fed the same commands in the same order it
// reaches the same placements, which is what the output checks compare
// and what lets the benchmark time each layer call on its own.
type mirror struct {
	cfg    server.Config
	net    *mec.Network
	m      *mec.Market // nil while no provider is active, as in the daemon
	pl     mec.Placement
	ls     *game.LoadState
	ids    []int64
	nextID int64
	epochs uint64
	failed []bool
}

// newMirror builds the daemon's network for mecd -seed seed -size size
// exactly as server.New does.
func newMirror(seed uint64, size int) (*mirror, error) {
	cfg := server.DefaultConfig(seed)
	cfg.Size = size
	topo, err := topology.GTITM(cfg.Seed^0xdddd, cfg.Size)
	if err != nil {
		return nil, err
	}
	probe := cfg.Workload
	probe.NumProviders = 1
	pm, err := workload.Generate(topo, probe)
	if err != nil {
		return nil, err
	}
	return &mirror{cfg: cfg, net: pm.Net, failed: make([]bool, pm.Net.NumCloudlets())}, nil
}

func (x *mirror) setPl(idx, c int) {
	if x.pl[idx] == c {
		return
	}
	x.ls.Move(idx, x.pl[idx], c)
	x.pl[idx] = c
}

// admit mirrors admitCmd and returns the new provider's ID.
func (x *mirror) admit(p mec.Provider) (int64, error) {
	var idx int
	if x.m == nil {
		m, err := mec.NewMarket(x.net, []mec.Provider{p})
		if err != nil {
			return 0, err
		}
		x.m, x.pl, x.ls = m, mec.Placement{mec.Remote}, game.NewLoadState(m)
	} else {
		i, err := x.m.AppendProvider(p)
		if err != nil {
			return 0, err
		}
		idx = i
		x.pl = append(x.pl, mec.Remote)
	}
	x.setPl(idx, dynamic.BestResponseWithLoads(x.ls, x.pl, idx, x.failed, nil))
	id := x.nextID
	x.nextID++
	x.ids = append(x.ids, id)
	return id, nil
}

// depart mirrors departCmd.
func (x *mirror) depart(id int64) error {
	idx := -1
	for i, v := range x.ids {
		if v == id {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("mirror: no active provider %d", id)
	}
	x.setPl(idx, mec.Remote)
	if len(x.ids) == 1 {
		x.m, x.pl, x.ls, x.ids = nil, nil, nil, x.ids[:0]
		return nil
	}
	if err := x.m.RemoveProvider(idx); err != nil {
		return err
	}
	x.pl = append(x.pl[:idx], x.pl[idx+1:]...)
	x.ids = append(x.ids[:idx], x.ids[idx+1:]...)
	return nil
}

// epochOptions are the options epochCmd passes for the next epoch. The
// daemon runs with decision tracing on (-trace 64), so the solve gets a
// recorder just as it does there.
func (x *mirror) epochOptions(state *dynamic.EpochSolveState) dynamic.EpochOptions {
	return dynamic.EpochOptions{
		Xi:             x.cfg.Xi,
		Seed:           x.cfg.Seed + x.epochs,
		MigrationAware: x.cfg.MigrationAware,
		Failed:         x.failed,
		Trace:          obs.NewRecorder(0),
		State:          state,
	}
}

// solve is one timed Reequilibrate call on the current market.
func (x *mirror) solve(state *dynamic.EpochSolveState) (mec.Placement, time.Duration, error) {
	t0 := time.Now()
	next, _, err := dynamic.Reequilibrate(x.m, x.pl, x.epochOptions(state))
	return next, time.Since(t0), err
}

// apply installs an epoch's placement, as epochCmd does.
func (x *mirror) apply(next mec.Placement) {
	for i := range next {
		x.setPl(i, next[i])
	}
}

// placements renders the body GET /v1/placements serves for this state,
// byte for byte.
func (x *mirror) placements() ([]byte, error) {
	providers := []server.ProviderView{}
	social := 0.0
	if x.m != nil {
		costs := x.m.ProviderCosts(x.pl)
		social = x.m.SocialCost(x.pl)
		for i, id := range x.ids {
			providers = append(providers, server.ProviderView{ID: id, Placement: x.pl[i], Cost: costs[i]})
		}
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(map[string]any{
		"providers":  providers,
		"socialCost": social,
		"epochs":     x.epochs,
	})
	return buf.Bytes(), err
}

// stateWalk times the per-publish walk over all N providers (publish calls
// ProviderCosts, SocialCost and Loads) and returns its median in seconds.
func (x *mirror) stateWalk() float64 {
	if x.m == nil {
		return 0
	}
	var secs []float64
	for start := time.Now(); len(secs) < 5 || (len(secs) < 200 && time.Since(start) < 200*time.Millisecond); {
		t0 := time.Now()
		x.m.ProviderCosts(x.pl)
		x.m.SocialCost(x.pl)
		x.m.Loads(x.pl)
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs)
}
