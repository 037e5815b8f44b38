package main

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"time"

	"protemp"
	"protemp/client"
	"protemp/internal/cluster"
	"protemp/internal/server"
)

// node is one in-process protemp-serve instance on a loopback
// listener.
type node struct {
	url    string
	eng    *protemp.Engine
	srv    *server.Server
	clu    *cluster.Cluster // nil on a single node
	http   *http.Server
	served chan struct{} // closed when Serve returns
	logs   logCapture
	client *client.Client // the benchmark's client toward this node
	hc     *http.Client
}

// listen reserves a loopback port before the node exists, so every
// cluster member can be told the full peer list up front.
func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

// startNode serves a server over ln. A traced node logs every request
// into a capture handler and its client times every round trip.
func startNode(ln net.Listener, url string, eng *protemp.Engine, clu *cluster.Cluster, adm cluster.AdmissionConfig, traced bool) (*node, error) {
	nd := &node{url: url, eng: eng, clu: clu, served: make(chan struct{})}
	cfg := server.Config{Engine: eng, Cluster: clu, Admission: adm}
	if traced {
		nd.logs = newLogCapture()
		cfg.Logger = slog.New(nd.logs)
	}
	srv, err := server.New(cfg)
	if err != nil {
		ln.Close()
		return nil, err
	}
	nd.srv = srv
	nd.http = &http.Server{Handler: srv.Handler()}
	go func() {
		defer close(nd.served)
		nd.http.Serve(ln)
	}()
	nd.hc = newHTTPClient(traced)
	nd.client, err = client.New(url, client.WithHTTPClient(nd.hc))
	if err != nil {
		nd.close()
		return nil, err
	}
	if _, err := nd.client.Healthz(context.Background()); err != nil {
		nd.close()
		return nil, fmt.Errorf("node %s not healthy: %w", url, err)
	}
	return nd, nil
}

// close stops the listener, drains the server and waits for Serve to
// return.
func (nd *node) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	nd.http.Shutdown(ctx)
	nd.srv.Shutdown(ctx)
	<-nd.served
	if nd.hc != nil {
		nd.hc.CloseIdleConnections()
	}
}

// records returns the node's captured request records (traced nodes).
func (nd *node) records() []reqLog {
	if nd.logs.mu == nil {
		return nil
	}
	return nd.logs.records()
}
