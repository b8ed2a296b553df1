package frontend

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/pem"
	"fmt"
	"math/big"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"es"
	"es/internal/core"
	"es/internal/server"
)

// newFrontend starts a Frontend on a fresh unix socket plus whatever the
// config adds; the returned frontend is already serving.
func newFrontend(t *testing.T, cfg Config) *Frontend {
	t.Helper()
	template, err := es.New(es.Options{})
	if err != nil {
		t.Fatalf("template shell: %v", err)
	}
	cfg.Server.Socket = filepath.Join(t.TempDir(), "esd.sock")
	cfg.Server.NewSession = func() (*core.Interp, error) {
		return template.Interp().Spawn(), nil
	}
	fe, err := New(cfg)
	if err != nil {
		t.Fatalf("frontend.New: %v", err)
	}
	if err := fe.Listen(); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- fe.Serve() }()
	t.Cleanup(func() {
		if err := fe.Drain(10 * time.Second); err != nil {
			t.Logf("cleanup drain: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return fe
}

type client struct {
	conn net.Conn
	fr   *server.FrameReader
	fw   *server.FrameWriter
}

func dialNet(t *testing.T, network, addr string) *client {
	t.Helper()
	conn, err := net.Dial(network, addr)
	return dialConn(t, conn, err)
}

func dialConn(t *testing.T, conn net.Conn, err error) *client {
	t.Helper()
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	fr, fw := server.NewClientConn(conn)
	return &client{conn: conn, fr: fr, fw: fw}
}

func (c *client) eval(t *testing.T, id int64, src string) *server.Frame {
	t.Helper()
	if err := c.fw.Write(&server.Frame{Type: "eval", ID: id, Src: src}); err != nil {
		t.Fatalf("write eval: %v", err)
	}
	f, err := c.fr.Read()
	if err != nil {
		t.Fatalf("read reply: %v", err)
	}
	return f
}

func TestTCPServing(t *testing.T) {
	fe := newFrontend(t, Config{TCP: "127.0.0.1:0", Accepts: 3})
	addr := fe.TCPAddr()
	if addr == "" {
		t.Fatal("no bound TCP address")
	}
	c := dialNet(t, "tcp", addr)
	if f := c.eval(t, 1, "echo over tcp"); f.Type != "result" || f.Stdout != "over tcp\n" {
		t.Fatalf("tcp eval = %+v", f)
	}
	// The unix socket serves alongside.
	u := dialNet(t, "unix", fe.Socket())
	if f := u.eval(t, 1, "result unix-too"); f.Type != "result" || f.Value[0] != "unix-too" {
		t.Fatalf("unix eval = %+v", f)
	}
}

// TestTCPManySessions exercises accept sharding: a burst of concurrent
// TCP sessions all served, counted under the tcp listener's stats.
func TestTCPManySessions(t *testing.T) {
	fe := newFrontend(t, Config{TCP: "127.0.0.1:0", Accepts: 4})
	addr := fe.TCPAddr()
	const sessions = 32
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for k := 0; k < sessions; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			fr, fw := server.NewClientConn(conn)
			want := fmt.Sprintf("s%d", k)
			if err := fw.Write(&server.Frame{Type: "eval", ID: 1, Src: "echo " + want}); err != nil {
				errs <- err
				return
			}
			f, err := fr.Read()
			if err != nil || f.Type != "result" || f.Stdout != want+"\n" {
				errs <- fmt.Errorf("session %d: %+v, %v", k, f, err)
				return
			}
			fw.Write(&server.Frame{Type: "bye"})
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	joined := strings.Join(fe.Server().Stats(), " ")
	if !strings.Contains(joined, fmt.Sprintf("lst_tcp_sessions:%d", sessions)) {
		t.Errorf("per-listener session count missing: %s", joined)
	}
}

// selfSignedCert writes a PEM cert/key pair for 127.0.0.1 into dir.
func selfSignedCert(t *testing.T, dir string) (certFile, keyFile string) {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "esd-test"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(time.Hour),
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		IPAddresses:           []net.IP{net.ParseIP("127.0.0.1")},
		IsCA:                  true,
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	keyDER, err := x509.MarshalECPrivateKey(key)
	if err != nil {
		t.Fatal(err)
	}
	certFile = filepath.Join(dir, "cert.pem")
	keyFile = filepath.Join(dir, "key.pem")
	if err := os.WriteFile(certFile,
		pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: der}), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(keyFile,
		pem.EncodeToMemory(&pem.Block{Type: "EC PRIVATE KEY", Bytes: keyDER}), 0o600); err != nil {
		t.Fatal(err)
	}
	return certFile, keyFile
}

func TestTLSServing(t *testing.T) {
	dir := t.TempDir()
	certFile, keyFile := selfSignedCert(t, dir)
	fe := newFrontend(t, Config{TLS: "127.0.0.1:0", CertFile: certFile, KeyFile: keyFile})
	addr := fe.TLSAddr()
	if addr == "" {
		t.Fatal("no bound TLS address")
	}
	pemBytes, err := os.ReadFile(certFile)
	if err != nil {
		t.Fatal(err)
	}
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(pemBytes) {
		t.Fatal("bad test cert")
	}
	conn, err := tls.Dial("tcp", addr, &tls.Config{RootCAs: pool, ServerName: "127.0.0.1"})
	c := dialConn(t, conn, err)
	if f := c.eval(t, 1, "result secure"); f.Type != "result" || f.Value[0] != "secure" {
		t.Fatalf("tls eval = %+v", f)
	}
	joined := strings.Join(fe.Server().Stats(), " ")
	if !strings.Contains(joined, "lst_tls_sessions:1") {
		t.Errorf("tls listener stats missing: %s", joined)
	}
}

// TestQueueCeilingShed is the load-shedding acceptance path: with one
// eval running and the dispatch queue at its ceiling, further evals are
// answered `signal overload` with a retry hint while admitted work
// completes normally.
func TestQueueCeilingShed(t *testing.T) {
	fe := newFrontend(t, Config{
		Server:       server.Config{MaxConcurrent: 1},
		QueueCeiling: 1,
		RetryAfterMS: 25,
	})
	srv := fe.Server()
	a := dialNet(t, "unix", fe.Socket())
	if err := a.fw.Write(&server.Frame{Type: "eval", ID: 1, Src: "sleep 0.4; result slow"}); err != nil {
		t.Fatal(err)
	}
	// Wait until it occupies the semaphore.
	for deadline := time.Now().Add(5 * time.Second); srv.Metrics().InFlight.Load() < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("eval never reached the semaphore")
		}
	}

	b := dialNet(t, "unix", fe.Socket())
	if err := b.fw.Write(&server.Frame{Type: "hello", Window: 4}); err != nil {
		t.Fatal(err)
	}
	if f, err := b.fr.Read(); err != nil || f.Type != "hello" {
		t.Fatalf("hello: %+v, %v", f, err)
	}
	// First eval queues (depth 1 = ceiling); the next two arrive over the
	// ceiling and must shed.
	for id := int64(1); id <= 3; id++ {
		if err := b.fw.Write(&server.Frame{Type: "eval", ID: id, Src: "result ok"}); err != nil {
			t.Fatal(err)
		}
	}
	var shed, served int
	for k := 0; k < 3; k++ {
		f, err := b.fr.Read()
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case f.Type == "error" && len(f.Exception) > 1 && f.Exception[1] == "overload":
			if f.RetryAfterMS != 25 {
				t.Errorf("retry_after_ms = %d, want 25", f.RetryAfterMS)
			}
			shed++
		case f.Type == "result":
			served++
		default:
			t.Fatalf("unexpected reply %+v", f)
		}
	}
	if shed != 2 || served != 1 {
		t.Fatalf("shed=%d served=%d, want 2/1", shed, served)
	}
	if f, err := a.fr.Read(); err != nil || f.Type != "result" || f.Value[0] != "slow" {
		t.Fatalf("admitted slow eval = %+v, %v", f, err)
	}
	if got := srv.Metrics().Sheds.Load(); got != 2 {
		t.Errorf("sheds counter = %d, want 2", got)
	}
}

// TestControllerP99Window unit-tests the sliding-window p99 logic: a
// burst of slow evals flips shedding on; a quiet interval flips it off.
func TestControllerP99Window(t *testing.T) {
	var m server.Metrics
	c := newController(&m, Config{
		P99Ceiling:   time.Millisecond,
		RetryAfterMS: 50,
		SamplePeriod: time.Hour, // sampled manually
	})
	c.prev = m.Buckets()
	for k := 0; k < 20; k++ {
		m.Observe(10 * time.Millisecond)
	}
	c.sample()
	if !c.shedding.Load() {
		t.Fatal("p99 over ceiling did not start shedding")
	}
	if ov := c.admit(); ov == nil || ov.Signal != "overload" || ov.RetryAfterMS != 50 {
		t.Fatalf("admit under shed = %+v", ov)
	}
	// An interval in which nothing completed: admission reopens.
	c.sample()
	if c.shedding.Load() {
		t.Fatal("idle interval did not stop shedding")
	}
	if ov := c.admit(); ov != nil {
		t.Fatalf("admit after recovery = %+v", ov)
	}
	// Fast evals keep admission open.
	for k := 0; k < 20; k++ {
		m.Observe(10 * time.Microsecond)
	}
	c.sample()
	if c.shedding.Load() {
		t.Fatal("fast interval started shedding")
	}
}
