// Command vkg-serve is the network front end of the engine: it serves one
// or more graphs over HTTP/JSON with admission control, per-request
// deadlines, load shedding, and graceful drain (see internal/serve).
//
// Tenants come from engine snapshots or from generated datasets:
//
//	vkg-serve -addr :8080 -snapshot movie=movie.vkg -snapshot amazon=amazon.vkg
//	vkg-serve -addr :8080 -gen movie=movie:tiny
//
// A -snapshot tenant is loaded through the checksummed snapshot path and
// saved back to the same file on drain, so the index shape the served
// workload paid for survives restarts. A -gen tenant generates the named
// dataset (freebase, movie, or amazon at :tiny or :full scale), training or
// loading the cached embedding, and is not saved on drain unless -gen-save
// gives it a path.
//
// With -wal, each snapshot-backed tenant keeps a write-ahead log beside its
// snapshot: mutations and crack splits accrued between saves are replayed on
// the next load, so a restart — even an unclean one — comes back warm
// instead of rebuilding a cold index. -wal-sync picks the fsync policy.
//
// Query it:
//
//	curl -s localhost:8080/v1/query -d '{"tenant":"movie","entity":"user17","relation":"likes","k":5}'
//
// Operational surface: /healthz (liveness), /readyz (readiness — fails once
// drain starts), /metrics (serving + per-tenant engine metrics, Prometheus
// 0.0.4 text), /traces (retained request traces as JSON; tail-kept errors
// and requests slower than -trace-slow — the record of slow queries — plus
// a -trace-head-rate sample of the rest), /tenants,
// /debug/pprof. vkg-query -metrics-addr serves the same page for one engine.
// Every query response carries a W3C Traceparent header; -access-log emits
// one JSON line per request. SIGTERM or SIGINT starts a graceful drain: the
// listener stops accepting, in-flight queries get -drain-timeout to finish,
// snapshots are written, and the process exits 0 on a clean drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"vkgraph/internal/experiments"
	"vkgraph/internal/serve"
	"vkgraph/vkg"
)

// pairList is a repeatable name=value flag.
type pairList []string

func (p *pairList) String() string { return strings.Join(*p, ",") }
func (p *pairList) Set(v string) error {
	if !strings.Contains(v, "=") {
		return fmt.Errorf("want name=value, got %q", v)
	}
	*p = append(*p, v)
	return nil
}

func splitPair(v string) (string, string) {
	i := strings.Index(v, "=")
	return v[:i], v[i+1:]
}

func main() {
	var snapshots, gens, genSaves pairList
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		alpha        = flag.Int("alpha", 3, "index dimensionality for -gen tenants")
		maxInFlight  = flag.Int("max-inflight", 0, "max concurrently executing requests (0 = 4×GOMAXPROCS)")
		queueDepth   = flag.Int("queue-depth", 0, "max requests waiting for a slot (0 = max-inflight)")
		queueWait    = flag.Duration("queue-wait", 100*time.Millisecond, "max time a queued request waits before shedding")
		defTimeout   = flag.Duration("default-timeout", 5*time.Second, "per-request deadline when the client sends none")
		maxTimeout   = flag.Duration("max-timeout", 30*time.Second, "upper clamp on client-requested timeouts")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "how long drain waits for in-flight requests")
		maxBody      = flag.Int64("max-body", 1<<20, "request body size cap in bytes")
		maxBatch     = flag.Int("max-batch", 1024, "max queries per batch request")
		retryAfter   = flag.Duration("retry-after", time.Second, "Retry-After hint on shed responses")
		traceHead    = flag.Float64("trace-head-rate", 1.0/64, "fraction of fast, successful traces retained for /traces (errors and slow requests are always kept; <0 disables)")
		traceSlow    = flag.Duration("trace-slow", 100*time.Millisecond, "latency above which a trace is always retained")
		accessLog    = flag.String("access-log", "", "write one JSON line per request to this file ('-' for stderr)")
		walOn        = flag.Bool("wal", false, "arm a write-ahead log beside each tenant snapshot: -snapshot tenants replay it on load, -gen tenants with a -gen-save path log into it")
		walSync      = flag.String("wal-sync", "interval", "WAL fsync policy: interval, always, or off")
		walInterval  = flag.Duration("wal-sync-interval", 100*time.Millisecond, "fsync ticker period under -wal-sync=interval")
	)
	flag.Var(&snapshots, "snapshot", "serve an engine snapshot as a tenant: name=path (repeatable; saved back on drain)")
	flag.Var(&gens, "gen", "serve a generated dataset as a tenant: name=dataset:scale, e.g. movie=movie:tiny (repeatable)")
	flag.Var(&genSaves, "gen-save", "snapshot path for a -gen tenant on drain: name=path (repeatable)")
	flag.Parse()

	if len(snapshots)+len(gens) == 0 {
		fmt.Fprintln(os.Stderr, "vkg-serve: no tenants; pass at least one -snapshot or -gen")
		flag.Usage()
		os.Exit(2)
	}

	walCfg := vkg.WALConfig{SyncInterval: *walInterval}
	switch *walSync {
	case "interval":
		walCfg.Sync = vkg.WALSyncInterval
	case "always":
		walCfg.Sync = vkg.WALSyncAlways
	case "off":
		walCfg.Sync = vkg.WALSyncOff
	default:
		fatal("unknown -wal-sync %q (want interval, always, or off)", *walSync)
	}

	var accessW io.Writer
	switch *accessLog {
	case "":
	case "-":
		accessW = os.Stderr
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal("opening access log %s: %v", *accessLog, err)
		}
		defer f.Close()
		accessW = f
	}

	headRate := *traceHead
	if headRate < 0 {
		headRate = -1 // Config treats negative as "head sampling off"
	}
	s := serve.NewServer(serve.Config{
		MaxInFlight:    *maxInFlight,
		QueueDepth:     *queueDepth,
		QueueWait:      *queueWait,
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		DrainTimeout:   *drainTimeout,
		MaxBodyBytes:   *maxBody,
		MaxBatch:       *maxBatch,
		RetryAfter:     *retryAfter,
		TraceHeadRate:  headRate,
		TraceSlow:      *traceSlow,
		AccessLog:      accessW,
	})

	savePaths := map[string]string{}
	for _, kv := range genSaves {
		name, path := splitPair(kv)
		savePaths[name] = path
	}

	for _, kv := range snapshots {
		name, path := splitPair(kv)
		fmt.Fprintf(os.Stderr, "vkg-serve: loading tenant %q from %s\n", name, path)
		var v *vkg.VKG
		var err error
		if *walOn {
			v, err = vkg.LoadFileWAL(path, walCfg)
		} else {
			v, err = vkg.LoadFile(path)
		}
		if err != nil {
			fatal("loading snapshot %s: %v", path, err)
		}
		if *walOn {
			ws := v.WALStats()
			fmt.Fprintf(os.Stderr, "vkg-serve: tenant %q WAL %s gen %d: replayed %d records in %v (dropped %d bytes, truncations %d, stale %d)\n",
				name, ws.Path, ws.Generation, ws.ReplayedRecords, ws.ReplayDuration, ws.ReplayDroppedBytes, ws.ReplayTruncations, ws.ReplayStale)
		}
		if err := s.AddTenant(name, serve.NewTenant(v, path)); err != nil {
			fatal("%v", err)
		}
	}
	for _, kv := range gens {
		name, spec := splitPair(kv)
		ds, scale := spec, "tiny"
		if i := strings.Index(spec, ":"); i >= 0 {
			ds, scale = spec[:i], spec[i+1:]
		}
		sc, err := experiments.ParseScale(scale)
		if err != nil {
			fatal("tenant %q: %v", name, err)
		}
		fmt.Fprintf(os.Stderr, "vkg-serve: generating tenant %q from dataset %s:%s\n", name, ds, scale)
		data, err := experiments.LoadDataset(ds, sc)
		if err != nil {
			fatal("tenant %q: %v", name, err)
		}
		gr := vkg.WrapGraph(data.G)
		v, err := vkg.Build(gr,
			vkg.WithPretrainedModel(data.M),
			vkg.WithAlpha(*alpha),
			vkg.WithAttributes(gr.AttrNames()...))
		if err != nil {
			fatal("tenant %q: building engine: %v", name, err)
		}
		if *walOn && savePaths[name] != "" {
			if err := v.EnableWAL(savePaths[name], walCfg); err != nil {
				fatal("tenant %q: arming WAL: %v", name, err)
			}
			fmt.Fprintf(os.Stderr, "vkg-serve: tenant %q WAL armed at %s\n", name, v.WALStats().Path)
		}
		if err := s.AddTenant(name, serve.NewTenant(v, savePaths[name])); err != nil {
			fatal("%v", err)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listen %s: %v", *addr, err)
	}
	fmt.Fprintf(os.Stderr, "vkg-serve: serving tenants %v on %s\n", s.Tenants(), ln.Addr())

	// SIGTERM/SIGINT → graceful drain. The signal goroutine owns the exit:
	// a clean drain (all in-flight work finished, snapshots written) exits
	// 0; a busted drain budget or failed snapshot exits 1.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	go func() {
		got := <-sig
		fmt.Fprintf(os.Stderr, "vkg-serve: %v: draining (budget %v)\n", got, *drainTimeout)
		if err := s.Drain(context.Background()); err != nil {
			fmt.Fprintf(os.Stderr, "vkg-serve: drain: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "vkg-serve: drain complete")
		os.Exit(0)
	}()

	if err := s.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal("serve: %v", err)
	}
	// Serve returned because Drain shut the listener down; wait for the
	// signal goroutine to finish the drain and exit.
	select {}
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "vkg-serve: "+format+"\n", args...)
	os.Exit(1)
}
