package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"tabby/internal/server"
)

// liveServer is a server.Server listening on a loopback port, served by
// net/http exactly as cmd/tabby-server serves it.
type liveServer struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	client *http.Client
	done   chan struct{}
}

// startServer starts s on 127.0.0.1 and a client that keeps at most two
// connections open to it.
func startServer(s *server.Server) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	ls := &liveServer{
		srv:  s,
		hs:   &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
		client: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true},
		},
	}
	go func() {
		defer close(ls.done)
		_ = ls.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return ls, nil
}

// close stops serving, waits for the serve loop to return and stops the
// server's analyze workers.
func (ls *liveServer) close() {
	ls.client.CloseIdleConnections()
	_ = ls.hs.Close() // listener already closed is fine
	<-ls.done
	ls.srv.Close()
}

// post sends body to path and returns the response body; any transport
// error or non-2xx status is an error.
func (ls *liveServer) post(path string, body []byte) ([]byte, error) {
	resp, err := ls.client.Post(ls.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("POST %s: HTTP %d: %.200s", path, resp.StatusCode, raw)
	}
	return raw, nil
}

// serverStats is the part of GET /v1/stats the benchmark reports.
type serverStats struct {
	Jobs struct {
		Builds     int64 `json:"builds"`
		ResultHits int64 `json:"result_hits"`
	} `json:"jobs"`
	RespCache struct {
		Hits   map[string]int64 `json:"hits"`
		Misses map[string]int64 `json:"misses"`
	} `json:"resp_cache"`
}

// stats reads the server's counters over the wire and sets the server.*
// count metrics.
func (ls *liveServer) stats(r *run) error {
	resp, err := ls.client.Get(ls.url + "/v1/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var st serverStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return fmt.Errorf("decode /v1/stats: %w", err)
	}
	var hits, misses int64
	for _, v := range st.RespCache.Hits {
		hits += v
	}
	for _, v := range st.RespCache.Misses {
		misses += v
	}
	r.set("server.resp_cache_hit_ratio", ratio(float64(hits), float64(hits+misses)))
	r.set("server.builds", float64(st.Jobs.Builds))
	r.set("server.result_hits", float64(st.Jobs.ResultHits))
	r.note("server: %d builds, %d result-cache hits, response cache %d hits / %d misses", st.Jobs.Builds, st.Jobs.ResultHits, hits, misses)
	return nil
}
