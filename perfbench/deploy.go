package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"pis"
	"pis/server"
)

// servedOptions are the pis.Options pisserved builds with its flag
// defaults (-maxfrag 5, -compact-fraction 0.25, planner on, no query
// timeout).
func servedOptions() pis.Options {
	return pis.Options{MaxFragmentEdges: 5, CompactFraction: 0.25}
}

// servedCache is pisserved's -cache default.
const servedCache = 4096

// deployment is one set-up backend behind its HTTP servers.
type deployment struct {
	urls    []string
	backend server.Backend // first server's backend, unwrapped
	dataDir string         // durable store root, if any
	stops   []func() error // servers first, then backends
}

// front serves each backend through server.New on its own loopback
// listener, behind the timing wrappers when in is non-nil.
func (d *deployment) front(in *instruments, backends ...server.Backend) error {
	if d.backend == nil {
		d.backend = backends[0]
	}
	for _, b := range backends {
		if in != nil {
			var err error
			if b, err = wrapBackend(b, in); err != nil {
				return err
			}
		}
		srv, err := server.New(server.Config{Backend: b, CacheSize: servedCache})
		if err != nil {
			return err
		}
		var h http.Handler = srv
		if in != nil {
			h = in.handler(h)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: h}
		done := make(chan error, 1)
		go func() { done <- hs.Serve(ln) }()
		d.urls = append(d.urls, "http://"+ln.Addr().String())
		// Servers stop before any backend closes: prepend.
		d.stops = append([]func() error{func() error {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			err := hs.Shutdown(ctx)
			if serr := <-done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
				err = serr
			}
			return err
		}}, d.stops...)
	}
	return nil
}

// ready waits for every server to answer GET /healthz with "ok".
func (d *deployment) ready() error {
	for _, u := range d.urls {
		resp, err := http.Get(u + "/healthz")
		if err != nil {
			return err
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
			return fmt.Errorf("%s/healthz: %d %q", u, resp.StatusCode, body)
		}
	}
	return nil
}

// close stops servers, then backends, and reports the first error.
func (d *deployment) close() error {
	var first error
	for _, stop := range d.stops {
		if err := stop(); err != nil && first == nil {
			first = err
		}
	}
	d.stops = nil
	return first
}

// addCloser registers a backend's Close to run after the servers stop.
func (d *deployment) addCloser(c io.Closer) {
	d.stops = append(d.stops, c.Close)
}

// freeAddrs reserves n loopback ports for the cluster's shard RPC. The
// ports are released before the nodes bind them, as pisserved's
// operators would pick them: fixed addresses every node knows up front.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs, nil
}
