// Command treeqd serves the corpus query service over HTTP: the network
// front-end that turns the compile-once/run-many engine into a multi-user
// system.  It manages a corpus of named XML documents and answers queries in
// every language the engine speaks (Core XPath, conjunctive queries, monadic
// datalog, twig patterns, streaming path queries, and top-k subtree
// similarity search).
//
// Endpoints (all JSON unless noted):
//
//	GET    /v1/healthz          liveness probe
//	GET    /v1/statusz          the stats table: service, index, update,
//	                            similarity, pool and server counters, plus
//	                            per-document versions
//	GET    /v1/metrics          Prometheus text exposition: the same table's
//	                            families beside the latency histograms
//	GET    /v1/docs             list document names and versions
//	PUT    /v1/docs/{name}      upsert: add the XML body (201, version 1) or
//	                            update a live document in place (200, version
//	                            bumped, every cached plan still warm)
//	DELETE /v1/docs/{name}      remove a document
//	POST   /v1/query            {"doc","lang","query","limit"?,"timeout_ms"?,"plan"?}
//	POST   /v1/corpus/query     {"lang","query","limit"?,"timeout_ms"?,"doc_timeout_ms"?}
//	GET    /v1/prepared         list registered prepared queries
//	POST   /v1/prepared         {"doc","lang","query"} -> {"id",...}
//	POST   /v1/prepared/{id}    execute a registered prepared query
//	DELETE /v1/prepared/{id}    unregister
//
// The three /v1 query routes answer in one unified envelope {results, total,
// truncated, version, request_id}, each result {doc, doc_version, node,
// answer?, score?} — score only on the ranked similarity route (lang
// "similar", query "{k=N} {maxdist=N} SEXPR"), where it is the tree edit
// distance and results arrive closest-first.  Errors everywhere are {error,
// code, request_id, retry_after_s?} with a stable code enum.
//
// Every query request runs under a deadline (request-supplied, clamped to
// -max-timeout) and the admission gate rejects work beyond -max-inflight with
// 429 and a Retry-After hint derived from the observed request durations, so
// overload degrades by shedding instead of queueing.
//
// Observability: every response carries an X-Request-ID (accepted from the
// client or generated), JSON access logs go to stderr (-access-log=false to
// disable), queries slower than -slow-query get one structured warning line
// with a per-stage breakdown, and -debug-addr serves pprof on a separate
// listener.  Append ?debug=timings to a query request to get
// the same per-stage spans echoed in the response.
//
// Example:
//
//	treeqd -addr :8080 -load docs/ &
//	curl -X PUT --data-binary @doc.xml localhost:8080/v1/docs/mydoc
//	curl -X POST -d '{"doc":"mydoc","lang":"xpath","query":"//item//keyword"}' localhost:8080/v1/query
//	curl -X PUT --data-binary @doc-v2.xml localhost:8080/v1/docs/mydoc   # live update
//	curl -X POST -d '{"lang":"xpath","query":"//keyword","limit":10}' localhost:8080/v1/corpus/query
//	curl -X POST -d '{"lang":"similar","query":"k=5 description(keyword)","limit":5}' localhost:8080/v1/corpus/query
//
// See docs/API.md for the complete HTTP API reference and docs/ARCHITECTURE.md
// for how the pieces fit together.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/obsv"
	"repro/internal/server"
	"repro/internal/service"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		load          = flag.String("load", "", "directory of *.xml documents to preload")
		workers       = flag.Int("workers", 0, "fan-out worker-pool width (0 = GOMAXPROCS)")
		planCache     = flag.Int("plan-cache", 512, "plan-cache capacity in compiled plans (0 = unbounded)")
		planClauseCap = flag.Int("plan-clause-cap", 2_000_000, "deny plan-cache admission above this many clauses (0 = admit all)")
		maxInFlight   = flag.Int("max-inflight", server.DefaultMaxInFlight, "admission gate width; excess requests get 429 (0 = unbounded)")
		timeout       = flag.Duration("timeout", server.DefaultTimeout, "default per-request deadline")
		maxTimeout    = flag.Duration("max-timeout", server.DefaultMaxTimeout, "clamp on request-supplied deadlines")
		slowQuery     = flag.Duration("slow-query", 250*time.Millisecond, "log one structured warning per query slower than this (0 = disabled)")
		accessLog     = flag.Bool("access-log", true, "emit one JSON access-log line per request to stderr")
		debugAddr     = flag.String("debug-addr", "", "serve pprof on this separate address (empty = disabled)")
	)
	flag.Parse()

	// One registry covers both layers: the service's prepare-stage histogram
	// and the server's request/query families land in the same /metrics scrape.
	reg := obsv.NewRegistry()
	// The access and slow-query lines share one JSON log on stderr; the
	// server appends its access lines itself (server.AccessLog).
	logger := server.AccessLog(os.Stderr)

	svc := service.New(
		service.WithWorkers(*workers),
		service.WithPlanCacheSize(*planCache),
		service.WithPlanClauseCap(*planClauseCap),
		service.WithMetrics(reg),
	)
	if *load != "" {
		n, err := preload(svc, *load)
		if err != nil {
			log.Fatalf("treeqd: %v", err)
		}
		log.Printf("treeqd: preloaded %d documents from %s", n, *load)
	}

	serverOpts := []server.Option{
		server.WithMaxInFlight(*maxInFlight),
		server.WithDefaultTimeout(*timeout),
		server.WithMaxTimeout(*maxTimeout),
		server.WithRegistry(reg),
		server.WithSlowQueryLog(*slowQuery, logger),
	}
	if *accessLog {
		serverOpts = append(serverOpts, server.WithAccessLog(logger))
	}
	handler := server.New(svc, serverOpts...)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	if *debugAddr != "" {
		dbg := &http.Server{
			Addr:              *debugAddr,
			Handler:           server.DebugHandler(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("treeqd: debug listener: %v", err)
			}
		}()
		log.Printf("treeqd: pprof on %s", *debugAddr)
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("treeqd: serving on %s (max-inflight=%d, timeout=%v, slow-query=%v)",
		*addr, *maxInFlight, *timeout, *slowQuery)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("treeqd: %v", err)
		}
	case sig := <-sigc:
		log.Printf("treeqd: %v, draining", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Fatalf("treeqd: shutdown: %v", err)
		}
	}
}

// preload adds every *.xml file under dir to the corpus, named by base name.
func preload(svc *service.Service, dir string) (int, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.xml"))
	if err != nil {
		return 0, err
	}
	if len(paths) == 0 {
		return 0, fmt.Errorf("no *.xml documents under %q", dir)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return 0, err
		}
		if err := svc.AddXML(filepath.Base(p), string(data)); err != nil {
			return 0, err
		}
	}
	return len(paths), nil
}
