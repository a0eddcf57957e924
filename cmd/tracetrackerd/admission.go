package main

// Admission control: the daemon's front door. Identity comes from API
// keys mapping to tenant names (anonymous mode when no keys are
// configured, so loopback deployments and tests keep working
// unchanged); overload protection comes from token-bucket request
// rate limits (global and per tenant) and the bounded job queue; and
// per-tenant quotas — corpus bytes stored, concurrent jobs, job
// submissions per minute — keep one tenant from starving the rest.
// Every rejection increments daemon_rejected_total{reason,tenant}.
//
// Admission lives entirely here at the HTTP layer: the engine hot
// path is untouched (engine/zeroalloc_test.go still bounds it).

import (
	"bufio"
	"context"
	"crypto/subtle"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// anonTenant is the identity of unauthenticated requests when no key
// table is configured (anonymous mode).
const anonTenant = "anon"

// authKeysEnv supplies inline comma-separated tenant:key pairs when
// the -auth-keys flag is unset.
const authKeysEnv = "TRACETRACKERD_AUTH_KEYS"

// authKey is one configured credential.
type authKey struct {
	key    []byte
	tenant string
}

// authTable maps API keys to tenants. nil means anonymous mode.
type authTable struct {
	keys []authKey
}

// lookup finds the tenant for key, comparing against every configured
// key in constant time so response timing cannot leak how much of a
// guessed key matched.
func (t *authTable) lookup(key string) (string, bool) {
	kb := []byte(key)
	tenant, found := "", false
	for _, ak := range t.keys {
		if len(ak.key) == len(kb) && subtle.ConstantTimeCompare(ak.key, kb) == 1 && !found {
			tenant, found = ak.tenant, true
		}
	}
	return tenant, found
}

// parseAuthKeys reads a key table: one tenant:key per line, blank
// lines and #-comments skipped.
func parseAuthKeys(r io.Reader) (*authTable, error) {
	t := &authTable{}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		tenant, key, ok := strings.Cut(s, ":")
		tenant, key = strings.TrimSpace(tenant), strings.TrimSpace(key)
		if !ok || tenant == "" || key == "" {
			return nil, fmt.Errorf("auth keys: line %d: want tenant:key", line)
		}
		t.keys = append(t.keys, authKey{key: []byte(key), tenant: tenant})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(t.keys) == 0 {
		return nil, fmt.Errorf("auth keys: no tenant:key entries")
	}
	return t, nil
}

// loadAuthKeys resolves the key table from the -auth-keys path, then
// the TRACETRACKERD_AUTH_KEYS env var (inline, comma-separated). A nil
// table with nil error means anonymous mode.
func loadAuthKeys(path string) (*authTable, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		t, err := parseAuthKeys(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return t, nil
	}
	if env := os.Getenv(authKeysEnv); env != "" {
		t, err := parseAuthKeys(strings.NewReader(strings.ReplaceAll(env, ",", "\n")))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", authKeysEnv, err)
		}
		return t, nil
	}
	return nil, nil
}

// apiKeyFrom extracts the client's API key: Authorization: Bearer
// <key>, or the X-API-Key header.
func apiKeyFrom(r *http.Request) string {
	if auth := r.Header.Get("Authorization"); auth != "" {
		if key, ok := strings.CutPrefix(auth, "Bearer "); ok {
			return strings.TrimSpace(key)
		}
	}
	return r.Header.Get("X-API-Key")
}

// checkAddrGuard refuses a non-loopback listen address unless auth is
// configured or the operator explicitly opted out with -insecure: the
// API stores uploads and runs jobs, so exposing it anonymously beyond
// the host must be a deliberate act.
func checkAddrGuard(addr string, authConfigured, insecure bool) error {
	if authConfigured || insecure {
		return nil
	}
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		host = addr
	}
	if host == "localhost" {
		return nil
	}
	if ip := net.ParseIP(host); ip != nil && ip.IsLoopback() {
		return nil
	}
	return fmt.Errorf("refusing to listen on non-loopback %q without auth: configure -auth-keys (or %s), or pass -insecure to accept anonymous remote access",
		addr, authKeysEnv)
}

// tokenBucket is a classic token-bucket limiter: capacity burst,
// refilled at rate tokens/second. take reports whether a token was
// available and, when not, how long until one will be.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rate, burst float64) *tokenBucket {
	if burst < 1 {
		burst = 1
	}
	return &tokenBucket{rate: rate, burst: burst, tokens: burst, last: time.Now()}
}

func (b *tokenBucket) take() (bool, time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	b.tokens += now.Sub(b.last).Seconds() * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
}

// level reports the current token count (for gauges); it does not
// refill, so an idle bucket reads at its last drained level.
func (b *tokenBucket) level() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}

// buckets is one token bucket per tenant, each made on first use with
// the same rate and burst. A nil *buckets is no limit.
type buckets struct {
	rate, burst float64

	mu sync.Mutex
	m  map[string]*tokenBucket // guarded by mu
}

// newBuckets returns per-tenant buckets of rate tokens/second, or nil
// when rate is not positive (unlimited).
func newBuckets(rate, burst float64) *buckets {
	if rate <= 0 {
		return nil
	}
	return &buckets{rate: rate, burst: burst, m: make(map[string]*tokenBucket)}
}

// get returns tenant's bucket, or nil for no limit.
func (b *buckets) get(tenant string) *tokenBucket {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	tb, ok := b.m[tenant]
	if !ok {
		tb = newTokenBucket(b.rate, b.burst)
		b.m[tenant] = tb
	}
	return tb
}

// len counts the tenants with a bucket.
func (b *buckets) len() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.m)
}

// admission is the server's admission-control state. Request-rate
// buckets burst to twice their rate; the jobs/min quota's burst is the
// quota.
type admission struct {
	auth    *authTable   // nil = anonymous mode
	global  *tokenBucket // nil = unlimited
	tenants *buckets     // per-tenant request rate
	jobs    *buckets     // per-tenant jobs/min quota
}

// newAdmission loads o's key table, refuses a listen address the
// table leaves open (checkAddrGuard), and builds o's rate limits.
func newAdmission(o *options) (admission, error) {
	auth, err := loadAuthKeys(o.authKeys)
	if err != nil {
		return admission{}, err
	}
	if err := checkAddrGuard(o.addr, auth != nil, o.insecure); err != nil {
		return admission{}, err
	}
	a := admission{
		auth:    auth,
		tenants: newBuckets(o.tenantRate, 2*o.tenantRate),
		jobs:    newBuckets(float64(o.quotaJobsPerMin)/60, float64(o.quotaJobsPerMin)),
	}
	if o.rate > 0 {
		a.global = newTokenBucket(o.rate, 2*o.rate)
	}
	return a, nil
}

// trackedTenants counts tenants with live rate state (for a gauge).
func (a *admission) trackedTenants() int {
	return max(a.tenants.len(), a.jobs.len())
}

// errCorpusQuota marks an upload cut off mid-stream by the tenant's
// corpus-bytes quota.
var errCorpusQuota = errors.New("corpus-bytes quota exceeded")

// quotaReader passes through at most remaining bytes, then fails with
// errCorpusQuota — bounding a streaming upload by what the tenant may
// still store without buffering it. An upload that ends exactly at
// the boundary is allowed through.
type quotaReader struct {
	r         io.Reader
	remaining int64
}

func (q *quotaReader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if q.remaining <= 0 {
		// Only over quota if more bytes are actually coming.
		var one [1]byte
		n, err := q.r.Read(one[:])
		if n > 0 {
			return 0, errCorpusQuota
		}
		return 0, err
	}
	if int64(len(p)) > q.remaining {
		p = p[:q.remaining]
	}
	n, err := q.r.Read(p)
	q.remaining -= int64(n)
	return n, err
}

type tenantCtxKey struct{}

// withTenant binds the authenticated tenant to the request context.
func withTenant(ctx context.Context, tenant string) context.Context {
	return context.WithValue(ctx, tenantCtxKey{}, tenant)
}

// tenantFrom returns the request's tenant (anonTenant outside an
// admitted request, e.g. in direct handler tests).
func tenantFrom(ctx context.Context) string {
	if t, ok := ctx.Value(tenantCtxKey{}).(string); ok {
		return t
	}
	return anonTenant
}

// retryAfterSeconds renders a Retry-After header value: whole
// seconds, at least 1.
func retryAfterSeconds(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}
