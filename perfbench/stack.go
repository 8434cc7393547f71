package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"shhc/internal/cloudsim"
	"shhc/internal/core"
	"shhc/internal/device"
	"shhc/internal/hashdb"
	"shhc/internal/ring"
	"shhc/internal/rpc"
	"shhc/internal/webfront"
)

// stack is the deployed system, in process: shhc-front's web front-end
// with its default Config, a core.Cluster of default rpc.Clients, and
// shhc-node's hybrid nodes (LRU on, Bloom filter on, write-through) over
// file-backed hash tables charged to a non-sleeping SSD model.
type stack struct {
	dir     string
	dbs     []*hashdb.DB
	nodes   []*core.Node
	servers []*rpc.Server
	// clients are the cluster's backends; the cluster owns them once it
	// exists.
	clients []core.Backend
	cluster *core.Cluster
	chunks  *cloudsim.Store
	front   *webfront.Server
	// httpSrv serves the traced handler; untraced stacks use the front
	// end's own Listen.
	httpSrv *http.Server
	addr    string
}

type stackOptions struct {
	sz  sizes
	dir string
	// tr, when set, wraps every layer boundary in timing spans.
	tr *tracer
	// wrapIndex, when set, wraps the Index the front end queries (the
	// self-test injects a faulty one through it).
	wrapIndex func(webfront.Index) webfront.Index
}

func startStack(o stackOptions) (s *stack, err error) {
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, fmt.Errorf("create stack dir: %w", err)
	}
	s = &stack{dir: o.dir}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	for i := 0; i < o.sz.nodes; i++ {
		id := fmt.Sprintf("node-%02d", i)
		path := filepath.Join(o.dir, id+".shdb")
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return nil, fmt.Errorf("create %s: %w", path, err)
		}
		db, err := hashdb.CreateFile(f, path, hashdb.Options{
			ExpectedItems: o.sz.expected,
			Device:        device.New(device.SSD, device.Account),
		})
		if err != nil {
			f.Close()
			return nil, err
		}
		var store hashdb.Store = db
		if o.tr != nil {
			store = &tracedStore{db: db, tr: o.tr}
		}
		node, err := core.NewNode(core.NodeConfig{
			ID:            ring.NodeID(id),
			Store:         store,
			CacheSize:     o.sz.cache,
			BloomExpected: o.sz.expected,
		})
		if err != nil {
			db.Close()
			return nil, err
		}
		s.dbs = append(s.dbs, db)
		s.nodes = append(s.nodes, node)

		var served core.Backend = node
		if o.tr != nil {
			served = &tracedNode{n: node, tr: o.tr}
		}
		srv := rpc.NewServer(served, rpc.ServerConfig{})
		s.servers = append(s.servers, srv)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		client, err := rpc.Dial(ring.NodeID(id), addr.String(), rpc.ClientConfig{})
		if err != nil {
			return nil, fmt.Errorf("dial %s: %w", id, err)
		}
		var b core.Backend = client
		if o.tr != nil {
			b = &tracedBackend{c: client, tr: o.tr}
		}
		s.clients = append(s.clients, b)
	}
	s.cluster, err = core.NewCluster(core.ClusterConfig{}, s.clients...)
	if err != nil {
		return nil, err
	}
	var index webfront.Index = s.cluster
	if o.tr != nil {
		index = &tracedIndex{c: s.cluster, tr: o.tr}
	}
	if o.wrapIndex != nil {
		index = o.wrapIndex(index)
	}
	s.chunks = cloudsim.New(cloudsim.Config{})
	s.front, err = webfront.New(webfront.Config{Index: index, Chunks: s.chunks})
	if err != nil {
		return nil, err
	}
	if o.tr == nil {
		addr, err := s.front.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		s.addr = addr.String()
		return s, nil
	}
	// The traced handler needs its own server; it is configured as
	// webfront.Server.Listen configures its own.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s.addr = ln.Addr().String()
	s.httpSrv = &http.Server{
		Handler:           &tracedHandler{h: s.front.Handler(), tr: o.tr},
		ReadHeaderTimeout: 10 * time.Second,
	}
	go s.httpSrv.Serve(ln)
	return s, nil
}

// close shuts the stack down front to back and deletes its files.
func (s *stack) close() error {
	var errs []error
	if s.httpSrv != nil {
		errs = append(errs, s.httpSrv.Close())
	}
	if s.front != nil {
		errs = append(errs, s.front.Close())
	}
	if s.cluster != nil {
		errs = append(errs, s.cluster.Close())
	} else {
		for _, c := range s.clients {
			errs = append(errs, c.Close())
		}
	}
	for _, srv := range s.servers {
		errs = append(errs, srv.Close())
	}
	for _, n := range s.nodes {
		errs = append(errs, n.Close())
	}
	if s.chunks != nil {
		errs = append(errs, s.chunks.Close())
	}
	errs = append(errs, os.RemoveAll(s.dir))
	return errors.Join(errs...)
}

// indexBytes is the total size of the stack's hash-table files.
func (s *stack) indexBytes() (int64, error) {
	var total int64
	for _, db := range s.dbs {
		fi, err := os.Stat(db.Path())
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}
