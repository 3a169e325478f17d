package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"vkgraph/internal/kg"
	"vkgraph/internal/serve"
	"vkgraph/vkg"
)

// httpSystem is the http-mixed system under test: a serve.Server on a
// loopback port in this process, and one keep-alive connection per client.
type httpSystem struct {
	v       *vkg.VKG
	g       *kg.Graph
	srv     *serve.Server
	traced  *http.Server // set in a traced run, which serves a wrapped handler
	done    chan error
	url     string
	clients []*http.Client
	tr      *tracer

	reqBytes, respBytes atomic.Int64
	shed                atomic.Int64
}

// startHTTP serves v on 127.0.0.1:0. An untraced run goes through
// Server.Serve, the hardened listener the product ships; a traced run must
// wrap Handler() in the span middleware, so it brings its own http.Server.
func startHTTP(v *vkg.VKG, g *kg.Graph, clients int, tr *tracer) (*httpSystem, error) {
	s := &httpSystem{v: v, g: g, srv: serve.NewServer(serve.Config{}), done: make(chan error, 1), tr: tr}
	tenant := serve.NewTenant(v, "")
	if tr != nil {
		tenant.Backend = vkgSpans{v: v, t: tr}
	}
	if err := s.srv.AddTenant("movie", tenant); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.url = "http://" + ln.Addr().String() + "/v1/query"
	if tr != nil {
		s.traced = &http.Server{Handler: serveSpans(tr, s.srv.Handler())}
		go func() { s.done <- s.traced.Serve(ln) }()
	} else {
		go func() { s.done <- s.srv.Serve(ln) }()
	}
	for c := 0; c < clients; c++ {
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}})
	}
	return s, nil
}

// close drains the server and waits for its accept loop to end.
func (s *httpSystem) close() error {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if s.traced != nil {
		if err := s.traced.Shutdown(ctx); err != nil {
			return err
		}
	}
	if err := s.srv.Drain(ctx); err != nil {
		return err
	}
	if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// wireBody is the POST /v1/query document for a read op, addressing the
// entity and relation by name as an application would.
func wireBody(g *kg.Graph, o op) ([]byte, error) {
	type agg struct {
		Kind      string `json:"kind"`
		Attr      string `json:"attr"`
		MaxAccess int    `json:"max_access"`
	}
	doc := struct {
		Kind     string `json:"kind,omitempty"`
		Dir      string `json:"dir,omitempty"`
		Entity   string `json:"entity"`
		Relation string `json:"relation"`
		K        int    `json:"k,omitempty"`
		Agg      *agg   `json:"agg,omitempty"`
	}{Entity: g.Entity(o.Entity).Name, Relation: g.Relation(o.Rel).Name}
	if o.Heads {
		doc.Dir = "heads"
	}
	switch o.Kind {
	case opTopK:
		doc.K = topK
	case opAgg:
		doc.Kind = "aggregate"
		doc.Agg = &agg{Kind: "avg", Attr: aggAttr, MaxAccess: aggMaxAccess}
	default:
		return nil, fmt.Errorf("bench: %s has no wire form", o.Kind)
	}
	return json.Marshal(doc)
}

// post sends one request and returns the response body. Any status but 200
// is an error, a 429 included.
func (s *httpSystem) post(client int, req uint64, o op) ([]byte, error) {
	body, err := wireBody(s.g, o)
	if err != nil {
		return nil, err
	}
	hr, err := http.NewRequest(http.MethodPost, s.url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if s.tr != nil && req != 0 { // warm-up and probes carry no request id
		hr.Header.Set("traceparent", traceparentFor(req))
	}
	start := time.Now()
	resp, err := s.clients[client].Do(hr)
	if err != nil {
		return nil, err
	}
	// The body is read to the end so the connection is reused.
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.tr.record(layerWire, "", req, start, time.Now())
	if err != nil {
		return nil, err
	}
	s.reqBytes.Add(int64(len(body)))
	s.respBytes.Add(int64(len(data)))
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode == http.StatusTooManyRequests {
			s.shed.Add(1)
		}
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

func (s *httpSystem) exec(client int, req uint64, o op) error {
	_, err := s.post(client, req, o)
	return err
}

// answers runs the probes over HTTP and decodes each answer's entity ids.
func (s *httpSystem) answers(probes []op) ([][]int32, error) {
	out := make([][]int32, len(probes))
	for i, o := range probes {
		data, err := s.post(0, 0, o)
		if err != nil {
			return nil, fmt.Errorf("HTTP probe %d: %w", i, err)
		}
		var doc struct {
			TopK *struct {
				Predictions []struct {
					Entity int32 `json:"entity"`
				} `json:"predictions"`
			} `json:"topk"`
		}
		if err := json.Unmarshal(data, &doc); err != nil || doc.TopK == nil {
			return nil, fmt.Errorf("HTTP probe %d: undecodable answer %q", i, data)
		}
		for _, p := range doc.TopK.Predictions {
			out[i] = append(out[i], p.Entity)
		}
	}
	return out, nil
}
