// Package httpwire implements a minimal HTTP/1.1 message layer: request
// and response head serialization (used by the simulator to charge
// realistic byte counts, and by the live proxy/origin to speak actual
// HTTP), plus a small parser for the live track.
//
// Only the subset the reproduction needs is implemented: GET requests in
// origin and absolute (proxy) form, Content-Length framing, persistent
// connections. No chunked encoding, no trailers.
package httpwire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Request is a parsed or to-be-serialized HTTP/1.1 request.
type Request struct {
	Method  string
	Target  string // origin-form path or absolute-form URL
	Headers map[string]string
}

// Response is a parsed or to-be-serialized HTTP/1.1 response.
type Response struct {
	Status  int
	Reason  string
	Headers map[string]string
	Body    []byte
}

// DefaultRequestHeaders returns the header set a Chrome-like client
// sends on every request; its serialized size is what HTTP pays per
// request and SPDY compresses away.
func DefaultRequestHeaders(host string) map[string]string {
	return map[string]string{
		"Host":            host,
		"Connection":      "keep-alive",
		"Accept":          "text/html,application/xhtml+xml,application/xml;q=0.9,*/*;q=0.8",
		"User-Agent":      "Mozilla/5.0 (Windows NT 6.1) AppleWebKit/537.11 Chrome/23.0 Safari/537.11",
		"Accept-Encoding": "gzip,deflate,sdch",
		"Accept-Language": "en-US,en;q=0.8",
		"Cookie":          "session=0123456789abcdef0123456789abcdef; pref=lang%3Den-US%7Ctz%3DAmerica%2FNew_York",
	}
}

// Marshal serializes the request head (through the final CRLF CRLF).
func (r *Request) Marshal() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\n", r.Method, r.Target)
	names := make([]string, 0, len(r.Headers))
	for k := range r.Headers {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&b, "%s: %s\r\n", k, r.Headers[k])
	}
	b.WriteString("\r\n")
	return []byte(b.String())
}

// Marshal serializes the response head followed by the body.
func (r *Response) Marshal() []byte {
	var b strings.Builder
	reason := r.Reason
	if reason == "" {
		reason = StatusText(r.Status)
	}
	fmt.Fprintf(&b, "HTTP/1.1 %d %s\r\n", r.Status, reason)
	names := make([]string, 0, len(r.Headers))
	for k := range r.Headers {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&b, "%s: %s\r\n", k, r.Headers[k])
	}
	b.WriteString("\r\n")
	out := append([]byte(b.String()), r.Body...)
	return out
}

// HeadSize returns the serialized size of the response head alone:
// len(Marshal()) less the body, summed line by line without building it.
func (r *Response) HeadSize() int {
	reason := r.Reason
	if reason == "" {
		reason = StatusText(r.Status)
	}
	n := len("HTTP/1.1 ") + decimalLen(r.Status) + len(" ") + len(reason) + len("\r\n")
	for k, v := range r.Headers {
		n += len(k) + len(": ") + len(v) + len("\r\n")
	}
	return n + len("\r\n")
}

// defaultResponseHeaders returns the header set of a typical 200 response
// relayed by the proxy.
func defaultResponseHeaders(contentType string, contentLength int) map[string]string {
	return map[string]string{
		"Content-Type":   contentType,
		"Content-Length": strconv.Itoa(contentLength),
		"Date":           "Thu, 18 Apr 2013 01:02:03 GMT",
		"Server":         "Apache/2.2.22",
		"Cache-Control":  "max-age=3600",
		"Via":            "1.1 proxy.cell.example (squid/3.1)",
		"Connection":     "keep-alive",
	}
}

// The simulator sizes two heads per object, so RequestSize and
// ResponseHeadSize do not serialize anything: each is the size of the
// default head with its variable fields empty, taken once from Marshal,
// plus the lengths of those fields.
var (
	requestFixed = len((&Request{
		Method: "GET", Target: "http://", Headers: DefaultRequestHeaders(""),
	}).Marshal())
	responseHeadFixed = len((&Response{
		Status: 200, Headers: defaultResponseHeaders("", 0),
	}).Marshal()) - decimalLen(0)
)

// RequestSize returns the wire size of a standard proxied GET for
// http://host+path (absolute-form target, host repeated in the Host
// header) — the per-request HTTP overhead in the simulator.
func RequestSize(host, path string) int {
	return requestFixed + 2*len(host) + len(path)
}

// ResponseHeadSize returns the wire size of a typical 200 response head.
// A negative contentLength is sized as Marshal would print it, sign
// included.
func ResponseHeadSize(contentType string, contentLength int) int {
	return responseHeadFixed + len(contentType) + decimalLen(contentLength)
}

// decimalLen returns len(strconv.Itoa(n)).
func decimalLen(n int) int {
	d, u := 1, uint(n)
	if n < 0 {
		d, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		d++
	}
	return d
}

// StatusText returns the reason phrase for the handful of codes used.
func StatusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 206:
		return "Partial Content"
	case 304:
		return "Not Modified"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 502:
		return "Bad Gateway"
	case 504:
		return "Gateway Timeout"
	default:
		return "Unknown"
	}
}

// errMalformed reports protocol violations in the parser.
var errMalformed = errors.New("httpwire: malformed message")

const maxHeaderLines = 100

// ReadRequest parses one request head from br.
func ReadRequest(br *bufio.Reader) (*Request, error) {
	line, err := readLine(br)
	if err != nil {
		return nil, err
	}
	parts := strings.SplitN(line, " ", 3)
	if len(parts) != 3 || !strings.HasPrefix(parts[2], "HTTP/1.") {
		return nil, fmt.Errorf("%w: request line %q", errMalformed, line)
	}
	req := &Request{Method: parts[0], Target: parts[1], Headers: map[string]string{}}
	if err := readHeaders(br, req.Headers); err != nil {
		return nil, err
	}
	return req, nil
}

// ReadResponse parses one response (head and Content-Length body).
func ReadResponse(br *bufio.Reader) (*Response, error) {
	line, err := readLine(br)
	if err != nil {
		return nil, err
	}
	parts := strings.SplitN(line, " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/1.") {
		return nil, fmt.Errorf("%w: status line %q", errMalformed, line)
	}
	code, err := strconv.Atoi(parts[1])
	if err != nil {
		return nil, fmt.Errorf("%w: status code %q", errMalformed, parts[1])
	}
	resp := &Response{Status: code, Headers: map[string]string{}}
	if len(parts) == 3 {
		resp.Reason = parts[2]
	}
	if err := readHeaders(br, resp.Headers); err != nil {
		return nil, err
	}
	if cl := resp.Headers["Content-Length"]; cl != "" {
		n, err := strconv.Atoi(cl)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("%w: content-length %q", errMalformed, cl)
		}
		resp.Body = make([]byte, n)
		if _, err := io.ReadFull(br, resp.Body); err != nil {
			return nil, err
		}
	}
	return resp, nil
}

func readLine(br *bufio.Reader) (string, error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
}

func readHeaders(br *bufio.Reader, into map[string]string) error {
	for i := 0; i < maxHeaderLines; i++ {
		line, err := readLine(br)
		if err != nil {
			return err
		}
		if line == "" {
			return nil
		}
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			return fmt.Errorf("%w: header line %q", errMalformed, line)
		}
		into[canonical(strings.TrimSpace(k))] = strings.TrimSpace(v)
	}
	return fmt.Errorf("%w: too many header lines", errMalformed)
}

// canonical normalizes header names to Canonical-Dash-Case.
func canonical(name string) string {
	b := []byte(name)
	upper := true
	for i, c := range b {
		if upper && 'a' <= c && c <= 'z' {
			b[i] = c - 'a' + 'A'
		} else if !upper && 'A' <= c && c <= 'Z' {
			b[i] = c - 'A' + 'a'
		}
		upper = c == '-'
	}
	return string(b)
}
