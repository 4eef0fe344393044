// Command cellmatchd serves the matching engine over HTTP: a
// long-running daemon that keeps the compiled kernel tables hot,
// scans every request on one shared worker pool (a body that fits one
// chunk scans on its own handler), and hot-swaps dictionaries without
// dropping traffic.
//
//	cellmatchd -dict signatures.txt -casefold
//	cellmatchd -regex expressions.txt                  # regex dictionary
//	cellmatchd -artifact compiled.cms -listen :8472
//	cellmatchd -artifact compiled.cms -watch           # reload on file change
//	cellmatchd -dict base.txt -tenant acme=dict:acme.txt \
//	           -tenant edge=artifact:edge.cms          # multi-tenant fleet
//
// Endpoints (see internal/server):
//
//	POST /scan          scan the request body; ?mode=pool|seq|adhoc,
//	                    ?workers=N (adhoc only) ?chunk=N ?count=1
//	POST /scan/stream   scan a chunked upload without buffering it
//	POST /scan/batch    alias of /scan
//	POST /reload        swap the dictionary (?path=...
//	                    ?format=artifact|dict|regex)
//	GET  /stats         dictionary shape + request/byte/match counters
//	GET  /metrics       Prometheus text exposition
//	GET  /healthz       liveness
//
// Every data/control endpoint also exists under /t/{tenant}/... for
// the dictionaries named by -tenant; the bare paths serve the
// "default" tenant (the base -artifact/-dict/-regex flags). With
// -max-inflight or -max-queued-bytes set, scan requests beyond the
// budget are refused with 429 + Retry-After instead of queueing.
//
// A dictionary file holds one pattern per line ('#' comments); with
// -regex the lines are regular expressions (bounded repetition only)
// compiled into one search automaton — see core.CompileRegexSearch. An
// artifact is the output of Matcher.Save (cellmatch's compiled form),
// which loads without re-running Aho-Corasick construction; regex
// artifacts round-trip too.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cellmatch/internal/core"
	"cellmatch/internal/registry"
	"cellmatch/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Stdout, os.Args[1:]); err != nil {
		log.Fatal("cellmatchd: ", err)
	}
}

// tenantSpec is one parsed -tenant flag: name=format:path.
type tenantSpec struct {
	name, format, path string
}

func parseTenantSpec(v string) (tenantSpec, error) {
	name, rest, ok := strings.Cut(v, "=")
	if !ok {
		return tenantSpec{}, fmt.Errorf("want name=format:path, got %q", v)
	}
	format, path, ok := strings.Cut(rest, ":")
	if !ok || path == "" {
		return tenantSpec{}, fmt.Errorf("want name=format:path, got %q", v)
	}
	switch format {
	case "artifact", "dict", "regex":
	default:
		return tenantSpec{}, fmt.Errorf("format %q: want artifact, dict, or regex", format)
	}
	if !registry.ValidTenantName(name) {
		return tenantSpec{}, fmt.Errorf("invalid tenant name %q", name)
	}
	return tenantSpec{name, format, path}, nil
}

// run parses args, loads the initial dictionaries, and serves until
// ctx is cancelled. It prints the bound address once listening (tests
// bind :0 and read it back).
func run(ctx context.Context, w io.Writer, args []string) error {
	fs := flag.NewFlagSet("cellmatchd", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		listen         = fs.String("listen", ":8472", "HTTP listen address")
		artifact       = fs.String("artifact", "", "compiled artifact (Matcher.Save output)")
		dict           = fs.String("dict", "", "pattern file (one per line, '#' comments)")
		regex          = fs.String("regex", "", "regular-expression file (one per line, '#' comments)")
		caseFold       = fs.Bool("casefold", false, "case-insensitive matching (with -dict/-regex)")
		filterMd       = fs.String("filter", "auto", "skip-scan front-end with -dict: auto, on, or off")
		strideMd       = fs.String("stride", "auto", "kernel transition stride with -dict/-regex: auto, 1, or 2")
		compMd         = fs.String("compressed", "auto", "compressed-row tier with -dict/-regex: auto, on, or off")
		workers        = fs.Int("workers", 0, "shared scan pool size (0 = one per CPU)")
		chunk          = fs.Int("chunk", 0, "scan chunk size in bytes (0 = 64 KiB)")
		maxBody        = fs.Int64("max-body", 0, "request body cap in bytes (0 = 64 MiB)")
		maxInflight    = fs.Int("max-inflight", 0, "shed scan requests beyond this concurrency with 429 (0 = unlimited)")
		maxQueuedBytes = fs.Int64("max-queued-bytes", 0, "shed scan requests once admitted body bytes exceed this (0 = unlimited)")
		watch          = fs.Bool("watch", false, "poll every dictionary source and hot-reload on change")
		watchInterval  = fs.Duration("watch-interval", 2*time.Second, "source poll interval with -watch")
		delta          = fs.Bool("delta", true, "patch dict/regex reloads incrementally (reuse unchanged compiled units; skip the swap when the pattern set is unchanged)")
		compileWorkers = fs.Int("compileworkers", 0, "dictionary compile parallelism (0 = one per CPU, 1 = sequential)")
	)
	var tenants []tenantSpec
	fs.Func("tenant", "serve an extra dictionary as `name=format:path` (repeatable; format: artifact, dict, or regex)",
		func(v string) error {
			spec, err := parseTenantSpec(v)
			if err != nil {
				return err
			}
			tenants = append(tenants, spec)
			return nil
		})
	if err := fs.Parse(args); err != nil {
		return err
	}

	fmode, err := core.ParseFilterMode(*filterMd)
	if err != nil {
		return fmt.Errorf("-filter: %w", err)
	}
	stride, err := core.ParseStride(*strideMd)
	if err != nil {
		return fmt.Errorf("-stride: %w", err)
	}
	cmode, err := core.ParseCompressed(*compMd)
	if err != nil {
		return fmt.Errorf("-compressed: %w", err)
	}
	opts := core.Options{
		CaseFold:       *caseFold,
		CompileWorkers: *compileWorkers,
		Engine:         core.EngineOptions{Filter: fmode, Stride: stride, Compressed: cmode},
	}

	// The base -artifact/-dict/-regex flags populate the default
	// tenant; each -tenant flag adds an independent slot.
	ns := registry.NewNamespace()
	baseSet := *artifact != "" || *dict != "" || *regex != ""
	if baseSet {
		reg, err := buildRegistry(*artifact, *dict, *regex, opts, *delta)
		if err != nil {
			return err
		}
		if err := ns.Set(registry.DefaultTenant, reg); err != nil {
			return err
		}
	} else if len(tenants) == 0 {
		return fmt.Errorf("a dictionary is required: -artifact, -dict, -regex, or -tenant")
	}
	for _, spec := range tenants {
		if spec.name == registry.DefaultTenant && baseSet {
			return fmt.Errorf("-tenant %s conflicts with the base dictionary flags", spec.name)
		}
		var reg *registry.Registry
		switch spec.format {
		case "artifact":
			reg = registry.New(spec.path, registry.ArtifactLoader(spec.path))
		case "dict":
			if *delta {
				reg = registry.NewDelta(spec.path, registry.DictDeltaLoader(spec.path, opts))
			} else {
				reg = registry.New(spec.path, registry.DictLoader(spec.path, opts))
			}
		case "regex":
			if *delta {
				reg = registry.NewDelta(spec.path, registry.RegexDeltaLoader(spec.path, opts))
			} else {
				reg = registry.New(spec.path, registry.RegexLoader(spec.path, opts))
			}
		}
		if err := ns.Set(spec.name, reg); err != nil {
			return fmt.Errorf("-tenant %s: %w", spec.name, err)
		}
	}

	// Fail fast: every tenant must load before we accept traffic.
	for _, tn := range ns.Tenants() {
		entry, err := ns.Get(tn).Reload()
		if err != nil {
			return fmt.Errorf("tenant %s: %w", tn, err)
		}
		st := entry.Matcher.LiveStats()
		prefix := ""
		if tn != registry.DefaultTenant {
			prefix = "tenant " + tn + ": "
		}
		fmt.Fprintf(w, "cellmatchd: %sloaded %s: %d patterns, %d states, engine=%s, stride=%d, filter=%v\n",
			prefix, entry.Source, st.Patterns, st.States, st.Engine, st.Stride, st.FilterEnabled)
	}

	srv, err := server.New(server.Config{
		Namespace:      ns,
		Workers:        *workers,
		ChunkBytes:     *chunk,
		MaxBodyBytes:   *maxBody,
		MaxInflight:    *maxInflight,
		MaxQueuedBytes: *maxQueuedBytes,
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	if *watch {
		go ns.WatchAll(ctx, *watchInterval, func(tenant string, e *registry.Entry, err error) {
			if err != nil {
				fmt.Fprintf(w, "cellmatchd: tenant %s: reload failed (keeping generation %d): %v\n",
					tenant, ns.Get(tenant).Current().Generation, err)
				return
			}
			fmt.Fprintf(w, "cellmatchd: tenant %s: hot-swapped to generation %d (%d patterns)\n",
				tenant, e.Generation, e.Matcher.NumPatterns())
		})
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "cellmatchd: listening on %s\n", ln.Addr())
	hs := newHTTPServer(srv.Handler())
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return err
	}
	fmt.Fprintln(w, "cellmatchd: drained, bye")
	return nil
}

// readHeaderTimeout bounds how long a client may take to send its
// request headers. Without it a client that never finishes them holds
// its connection, and the goroutine serving it, forever.
const readHeaderTimeout = 10 * time.Second

// newHTTPServer wraps the daemon's handler in the listener-side server.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

// buildRegistry wires the dictionary source from the flags: exactly
// one of -artifact, -dict, or -regex. With delta set, dict and regex
// sources reload through the incremental loaders (artifacts are
// pre-compiled and always load whole).
func buildRegistry(artifact, dict, regex string, opts core.Options, delta bool) (*registry.Registry, error) {
	set := 0
	for _, s := range []string{artifact, dict, regex} {
		if s != "" {
			set++
		}
	}
	switch {
	case set > 1:
		return nil, fmt.Errorf("use exactly one of -artifact, -dict, or -regex")
	case artifact != "":
		return registry.New(artifact, registry.ArtifactLoader(artifact)), nil
	case dict != "":
		if delta {
			return registry.NewDelta(dict, registry.DictDeltaLoader(dict, opts)), nil
		}
		return registry.New(dict, registry.DictLoader(dict, opts)), nil
	case regex != "":
		if delta {
			return registry.NewDelta(regex, registry.RegexDeltaLoader(regex, opts)), nil
		}
		return registry.New(regex, registry.RegexLoader(regex, opts)), nil
	default:
		return nil, fmt.Errorf("a dictionary is required: -artifact, -dict, or -regex")
	}
}
