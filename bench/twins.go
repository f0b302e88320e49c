package main

import (
	"fmt"
	"path/filepath"
	"time"

	"sqlledger"
)

// twinSpec describes a workload whose clients run transactions against
// a live database: the same generated operation stream goes to a ledger
// twin and to a regular-table twin, each in its own database directory.
type twinSpec struct {
	workload    string
	clients     int
	workUnit    string
	opts        storeOptions
	opsPerRound int
	spansPerOp  int // recorder capacity hint
	// obsTwin adds, in the traced run, a ledger twin opened with
	// DisabledMetrics() to price the metrics registry.
	obsTwin bool
	// load creates the schema and the starting rows through a loader
	// client and returns the workload's table handles.
	load func(c *client) (state any, err error)
	// client returns client id's (of n) operation function.
	client func(state any, id, n int) func(*client) opResult
	// kernel describes the loaded state to the layer kernels.
	kernel func(state any) kernelParams
}

// setupTwins builds the starting state of every variant of a
// transactional workload.
func setupTwins(e *env, spec twinSpec) (*run, error) {
	r := &run{
		opsPerRound: spec.opsPerRound,
		workUnit:    spec.workUnit,
		counts: map[string]int{
			"clients": spec.clients, "ops_per_client_per_round": spec.opsPerRound,
			"rounds": measuredRounds, "warmup_rounds": warmupRounds,
		},
	}
	type plan struct {
		name   string
		ledger bool
		traced bool
		obs    *sqlledger.MetricsRegistry
	}
	plans := []plan{{"ledger", true, e.traced, nil}, {"regular", false, e.traced, nil}}
	if e.traced {
		plans = append(plans, plan{"ledger-untraced", true, false, nil})
		if spec.obsTwin {
			plans = append(plans, plan{"ledger-noobs", true, false, sqlledger.DisabledMetrics()})
		}
	}
	epoch := time.Now()
	for _, p := range plans {
		opts := spec.opts
		opts.obs = p.obs
		st, err := openStore(filepath.Join(e.dir, p.name), p.ledger, opts)
		if err != nil {
			r.close()
			return nil, err
		}
		r.closers = append(r.closers, func() { _ = st.close() }) // measurement is over; nothing to report a close error to
		loader := &client{st: st, g: newGen(e.cfg.seed, spec.workload+"/load", 0)}
		state, err := spec.load(loader)
		if err != nil {
			r.close()
			return nil, fmt.Errorf("%s: load %s twin: %w", spec.workload, p.name, err)
		}
		v := &variant{name: p.name, st: st}
		for id := 0; id < spec.clients; id++ {
			c := &client{st: st, g: newGen(e.cfg.seed, spec.workload, id)}
			if p.traced {
				c.rec = newRecorder(epoch, id, 2*measuredRounds*spec.opsPerRound*spec.spansPerOp)
			}
			v.clients = append(v.clients, c)
			v.ops = append(v.ops, spec.client(state, id, spec.clients))
		}
		r.variants = append(r.variants, v)
		if p.name == "ledger" && spec.kernel != nil {
			r.kernel = spec.kernel(state)
		}
	}
	return r, nil
}
