package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// maxConns is the client connection budget: the load generator shares
// the machine's two vCPUs with the server, and two connections keep
// both busy without a queue of idle clients.
const maxConns = 2

// harness is a serve.Server behind a loopback HTTP listener, in this
// process, plus a client limited to maxConns connections.
type harness struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	client *http.Client
	served sync.WaitGroup
}

// startServer boots serve.New + Handler on 127.0.0.1 (ephemeral port).
func startServer(cfg serve.Config) (*harness, error) {
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := &harness{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		}},
	}
	h.served.Add(1)
	go func() {
		defer h.served.Done()
		h.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return h, nil
}

// close stops the listener and every connection, then the server.
func (h *harness) close() {
	h.hs.Close()
	h.served.Wait()
	h.client.CloseIdleConnections()
	h.srv.Close()
}

// abandon is close for a server whose unfinished jobs must stay
// recoverable: Drain(0) leaves their journal records live.
func (h *harness) abandon() {
	h.hs.Close()
	h.served.Wait()
	h.client.CloseIdleConnections()
	h.srv.Drain(0)
	h.srv.Close()
}

// httpStatusError is a response whose status was not the one expected.
type httpStatusError struct {
	method, path string
	status       int
	body         string
}

func (e *httpStatusError) Error() string {
	return fmt.Sprintf("%s %s: status %d: %s", e.method, e.path, e.status, strings.TrimSpace(e.body))
}

// do sends one request and reads the whole body; a status other than
// want is an *httpStatusError.
func (h *harness) do(method, path string, body []byte, want int) ([]byte, http.Header, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, h.base+path, rd)
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, nil, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, nil, &httpStatusError{method, path, resp.StatusCode, string(data)}
	}
	return data, resp.Header, nil
}

// waitReady polls /readyz until it answers 200.
func (h *harness) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		_, _, err := h.do("GET", "/readyz", nil, http.StatusOK)
		if err == nil {
			return nil
		}
		var se *httpStatusError
		if !errors.As(err, &se) || time.Now().After(deadline) {
			return fmt.Errorf("wait for /readyz: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stats reads /v1/stats.
func (h *harness) stats() (serve.StatsResponse, error) {
	var st serve.StatsResponse
	data, _, err := h.do("GET", "/v1/stats", nil, http.StatusOK)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(data, &st)
}

// scrape reads the named counters from /metrics.
func (h *harness) scrape(names ...string) (map[string]float64, error) {
	data, _, err := h.do("GET", "/metrics", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	fams, err := obs.ParseText(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("parse /metrics: %w", err)
	}
	out := make(map[string]float64, len(names))
	for _, n := range names {
		if f := fams[n]; f != nil {
			out[n], _ = f.Value(nil)
		}
	}
	return out, nil
}

// awaitTerminal follows a job's NDJSON event stream to its terminal
// line and returns it.
func (h *harness) awaitTerminal(path string) (serve.Event, error) {
	resp, err := h.client.Get(h.base + path)
	if err != nil {
		return serve.Event{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return serve.Event{}, &httpStatusError{"GET", path, resp.StatusCode, string(data)}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 16<<10), 4<<20)
	for sc.Scan() {
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return serve.Event{}, fmt.Errorf("GET %s: decode event: %w", path, err)
		}
		if ev.State.Terminal() {
			// Drain the (already ended) stream so the connection is reused.
			io.Copy(io.Discard, resp.Body)
			return ev, nil
		}
	}
	if err := sc.Err(); err != nil {
		return serve.Event{}, fmt.Errorf("GET %s: %w", path, err)
	}
	return serve.Event{}, fmt.Errorf("GET %s: stream ended before a terminal state", path)
}

// copyTree copies a directory tree of regular files.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
