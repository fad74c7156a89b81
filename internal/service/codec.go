package service

import (
	"strconv"

	"dagsched/internal/dag"
	"dagsched/internal/sched"
)

// The wire codec's own scanner. It takes the per-request costs of
// encoding/json off both ends of /v1/schedule. At the client, validJSON
// checks a raw problem before appendRequest splices it into a body, and
// decodeAnswer decodes a ScheduleResponse in the shape schedd's encoder
// writes. At schedd, decodeRequest decodes a request in the shape
// appendRequest writes into scheduleWire, the problem straight into its
// typed wire form, on a miss and for each batch item. All three follow
// one grammar (whitespace, strings, numbers, literals), each function
// taking the slice and a position and returning the position past what
// it scanned, -1 when the bytes are not what it scans. The decoders
// decline whatever they cannot decode to the value encoding/json gives,
// and decodeInto then decodes with encoding/json, so every error and
// every edge case stays encoding/json's.

// maxNesting is encoding/json's bound on nested arrays and objects.
const maxNesting = 10000

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for ; i < len(b); i++ {
		if c := b[i]; c > ' ' || c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return i
		}
	}
	return i
}

// scanString scans the string that opens at b[i]. It reports whether
// the string is plain: bytes 0x20–0x7f only, no escape, so its bytes are
// its value.
func scanString(b []byte, i int) (end int, plain bool) {
	plain = true
	for i++; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1, plain
		case c == '\\':
			plain = false
			if i++; i == len(b) {
				return -1, false
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(b)-i <= 4 || !isHex(b[i+1]) || !isHex(b[i+2]) || !isHex(b[i+3]) || !isHex(b[i+4]) {
					return -1, false
				}
				i += 4
			default:
				return -1, false
			}
		case c < 0x20:
			return -1, false
		case c >= 0x80:
			plain = false
		}
	}
	return -1, false
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func isDigit(c byte) bool { return c-'0' < 10 }

// skipDigits returns the index of the first byte at or after i that is
// not a decimal digit.
func skipDigits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

// scanNumber scans the number at b[i:]. It reports whether the number
// is an integer: no fraction, no exponent.
func scanNumber(b []byte, i int) (end int, integer bool) {
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i == len(b) || !isDigit(b[i]) {
		return -1, false
	}
	if b[i] == '0' {
		i++
	} else {
		i = skipDigits(b, i+1)
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		integer = false
		if i++; i == len(b) || !isDigit(b[i]) {
			return -1, false
		}
		i = skipDigits(b, i+1)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integer = false
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || !isDigit(b[i]) {
			return -1, false
		}
		i = skipDigits(b, i+1)
	}
	return i, integer
}

// scanLiteral scans lit at b[i:].
func scanLiteral(b []byte, i int, lit string) int {
	if len(b)-i >= len(lit) && string(b[i:i+len(lit)]) == lit {
		return i + len(lit)
	}
	return -1
}

// scanKey scans the object key at b[i:] and the colon after it,
// returning the index past the key's closing quote and the index of the
// member's value.
func scanKey(b []byte, i int) (keyEnd, value int, plain bool) {
	if i == len(b) || b[i] != '"' {
		return -1, -1, false
	}
	if keyEnd, plain = scanString(b, i); keyEnd < 0 {
		return -1, -1, false
	}
	if i = skipSpace(b, keyEnd); i == len(b) || b[i] != ':' {
		return -1, -1, false
	}
	return keyEnd, skipSpace(b, i+1), plain
}

// validJSON reports whether b is one JSON value with only whitespace
// around it: json.Valid(b), nesting limit included. It walks the value
// without recursion: open holds one bit per enclosing container, set
// for an object, and object is the innermost one's bit.
func validJSON(b []byte) bool {
	var open [(maxNesting + 63) / 64]uint64
	depth, object := 0, false
	i := skipSpace(b, 0)
	for {
		// A value starts at b[i].
		if i == len(b) {
			return false
		}
		switch c := b[i]; {
		case c == '-' || isDigit(c):
			i, _ = scanNumber(b, i)
		case c == '"':
			i, _ = scanString(b, i)
		case c == '{' || c == '[':
			if depth == maxNesting {
				return false
			}
			object = c == '{'
			if object {
				open[depth/64] |= 1 << (depth % 64)
			} else {
				open[depth/64] &^= 1 << (depth % 64)
			}
			depth++
			// '}' and ']' are two past their openers.
			if i = skipSpace(b, i+1); i == len(b) || b[i] != c+2 {
				if object {
					if _, i, _ = scanKey(b, i); i < 0 {
						return false
					}
				}
				continue
			}
			i++
			depth--
			object = depth > 0 && open[(depth-1)/64]&(1<<((depth-1)%64)) != 0
		case c == 't':
			i = scanLiteral(b, i, "true")
		case c == 'f':
			i = scanLiteral(b, i, "false")
		case c == 'n':
			i = scanLiteral(b, i, "null")
		default:
			return false
		}
		if i < 0 {
			return false
		}
		// A value ends before b[i]: close what it completes, up to the
		// next value.
		for {
			if i = skipSpace(b, i); depth == 0 {
				return i == len(b)
			}
			if i == len(b) {
				return false
			}
			if b[i] == ',' {
				if i = skipSpace(b, i+1); object {
					if _, i, _ = scanKey(b, i); i < 0 {
						return false
					}
				}
				break
			}
			if object && b[i] != '}' || !object && b[i] != ']' {
				return false
			}
			i++
			depth--
			object = depth > 0 && open[(depth-1)/64]&(1<<((depth-1)%64)) != 0
		}
	}
}

// The decoder. Each parse function takes the index of a value and
// returns the index past it, -1 when the value is not one the decoder
// takes. Strings must be plain; numbers are parsed as encoding/json
// parses them, and one it would refuse is not taken; null is never
// taken. Objects take their known keys only, each matched exactly and
// at most once.

// decodeAnswer decodes the first JSON value of b into r, as decodeInto
// would, when b is an answer in the shape schedd writes, and reports
// whether it did. Otherwise r is untouched. It takes each field of
// ScheduleResponse but Analysis and Robustness. Into an r whose
// Assignments has capacity it takes nothing: encoding/json would decode
// into those elements.
func decodeAnswer(b []byte, r *ScheduleResponse) bool {
	if cap(r.Assignments) > 0 {
		return false
	}
	v := *r
	end := parseObject(b, skipSpace(b, 0), answerKeys, func(key string, i int) int {
		switch key {
		case "algorithm":
			v.Algorithm, i = parseString(b, i)
		case "makespan":
			v.Makespan, i = parseFloat(b, i)
		case "slr":
			v.SLR, i = parseFloat(b, i)
		case "speedup":
			v.Speedup, i = parseFloat(b, i)
		case "efficiency":
			v.Efficiency, i = parseFloat(b, i)
		case "duplicates":
			v.Duplicates, i = parseInt(b, i)
		case "commModel":
			v.CommModel, i = parseString(b, i)
		case "runtimeMs":
			v.RuntimeMs, i = parseFloat(b, i)
		case "cached":
			v.Cached, i = parseBool(b, i)
		case "coalesced":
			v.Coalesced, i = parseBool(b, i)
		case "assignments":
			v.Assignments, i = parseArray(b, i, 0, parseAssignment)
		}
		return i
	})
	if end < 0 {
		return false
	}
	*r = v
	return true
}

var (
	answerKeys = []string{"algorithm", "makespan", "slr", "speedup", "efficiency", "duplicates",
		"commModel", "runtimeMs", "cached", "coalesced", "assignments"}
	assignmentKeys = []string{"task", "name", "proc", "start", "finish", "dup"}
)

func parseAssignment(b []byte, i int) (a AssignmentJSON, end int) {
	end = parseObject(b, i, assignmentKeys, func(key string, i int) int {
		switch key {
		case "task":
			a.Task, i = parseInt(b, i)
		case "name":
			a.Name, i = parseString(b, i)
		case "proc":
			a.Proc, i = parseInt(b, i)
		case "start":
			a.Start, i = parseFloat(b, i)
		case "finish":
			a.Finish, i = parseFloat(b, i)
		case "dup":
			a.Dup, i = parseBool(b, i)
		}
		return i
	})
	return a, end
}

// decodeRequest decodes the first JSON value of b into w, as decodeInto
// would, when b is a request in the shape the Go client's appendRequest
// writes, and reports whether it did. Otherwise w is untouched. It takes
// each field of scheduleWire but Faults, the problem decoded into its
// typed form. Into a w whose Instance or Graph is set it takes nothing:
// encoding/json would decode into those.
func decodeRequest(b []byte, w *scheduleWire) bool {
	if w.Instance != nil || w.Graph != nil {
		return false
	}
	v := *w
	end := parseObject(b, skipSpace(b, 0), requestKeys, func(key string, i int) int {
		switch key {
		case "algorithm":
			v.Algorithm, i = parseString(b, i)
		case "instance":
			v.Instance, i = parseInstance(b, i)
		case "graph":
			v.Graph, i = parseGraph(b, i)
		case "processors":
			v.Processors, i = parseInt(b, i)
		case "latency":
			v.Latency, i = parseFloat(b, i)
		case "timePerUnit":
			v.TimePerUnit, i = parseFloat(b, i)
		case "commModel":
			v.CommModel, i = parseString(b, i)
		case "linkBandwidth":
			v.LinkBandwidth, i = parseFloat(b, i)
		case "analyze":
			v.Analyze, i = parseBool(b, i)
		case "timeoutMs":
			var ms int
			ms, i = parseInt(b, i)
			v.TimeoutMs = int64(ms)
		case "priority":
			v.Priority, i = parseString(b, i)
		}
		return i
	})
	if end < 0 {
		return false
	}
	*w = v
	return true
}

var (
	requestKeys = []string{"algorithm", "processors", "latency", "timePerUnit", "commModel",
		"linkBandwidth", "analyze", "timeoutMs", "priority", "instance", "graph"}
	instanceKeys = []string{"graph", "system", "costs", "version"}
	systemKeys   = []string{"speeds", "startup", "invRate"}
	graphKeys    = []string{"name", "tasks", "edges"}
	taskKeys     = []string{"id", "name", "weight"}
	edgeKeys     = []string{"from", "to", "data"}
)

func parseInstance(b []byte, i int) (*sched.InstanceJSON, int) {
	in := new(sched.InstanceJSON)
	end := parseObject(b, i, instanceKeys, func(key string, i int) int {
		switch key {
		case "graph":
			in.Graph, i = parseGraph(b, i)
		case "system":
			i = parseObject(b, i, systemKeys, func(key string, i int) int {
				switch key {
				case "speeds":
					in.System.Speeds, i = parseArray(b, i, 0, parseFloat)
				case "startup":
					in.System.Startup, i = parseMatrix(b, i)
				case "invRate":
					in.System.InvRate, i = parseMatrix(b, i)
				}
				return i
			})
		case "costs":
			in.Costs, i = parseMatrix(b, i)
		case "version":
			in.Version, i = parseInt(b, i)
		}
		return i
	})
	return in, end
}

func parseGraph(b []byte, i int) (*dag.GraphJSON, int) {
	g := new(dag.GraphJSON)
	end := parseObject(b, i, graphKeys, func(key string, i int) int {
		switch key {
		case "name":
			g.Name, i = parseString(b, i)
		case "tasks":
			g.Tasks, i = parseArray(b, i, 0, parseTask)
		case "edges":
			g.Edges, i = parseArray(b, i, 0, parseEdge)
		}
		return i
	})
	return g, end
}

func parseTask(b []byte, i int) (t dag.TaskJSON, end int) {
	end = parseObject(b, i, taskKeys, func(key string, i int) int {
		switch key {
		case "id":
			t.ID, i = parseTaskID(b, i)
		case "name":
			t.Name, i = parseString(b, i)
		case "weight":
			t.Weight, i = parseFloat(b, i)
		}
		return i
	})
	return t, end
}

func parseEdge(b []byte, i int) (e dag.EdgeJSON, end int) {
	end = parseObject(b, i, edgeKeys, func(key string, i int) int {
		switch key {
		case "from":
			e.From, i = parseTaskID(b, i)
		case "to":
			e.To, i = parseTaskID(b, i)
		case "data":
			e.Data, i = parseFloat(b, i)
		}
		return i
	})
	return e, end
}

// parseObject walks the object at b[i:], handing member each key and
// the index of its value. Every key must be plain, one of keys and not
// seen before in the object.
func parseObject(b []byte, i int, keys []string, member func(key string, value int) int) int {
	if i == len(b) || b[i] != '{' {
		return -1
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == '}' {
		return i + 1
	}
	var seen uint
	for {
		keyEnd, value, plain := scanKey(b, i)
		if value < 0 || !plain {
			return -1
		}
		k := 0
		for k < len(keys) && string(b[i+1:keyEnd-1]) != keys[k] {
			k++
		}
		if k == len(keys) || seen&(1<<k) != 0 {
			return -1
		}
		seen |= 1 << k
		if i = member(keys[k], value); i < 0 {
			return -1
		}
		if i = skipSpace(b, i); i == len(b) {
			return -1
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return i + 1
		default:
			return -1
		}
	}
}

// parseArray parses a non-null array, each element with elem, into a
// slice made with capacity size; [] is an empty, non-nil slice, as
// encoding/json decodes it.
func parseArray[T any](b []byte, i, size int, elem func(b []byte, i int) (T, int)) ([]T, int) {
	if i == len(b) || b[i] != '[' {
		return nil, -1
	}
	out := make([]T, 0, size)
	if i = skipSpace(b, i+1); i < len(b) && b[i] == ']' {
		return out, i + 1
	}
	for {
		var v T
		if v, i = elem(b, i); i < 0 {
			return nil, -1
		}
		out = append(out, v)
		if i = skipSpace(b, i); i == len(b) {
			return nil, -1
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case ']':
			return out, i + 1
		default:
			return nil, -1
		}
	}
}

// parseMatrix parses an array of number arrays, each row made at the
// length of the row before it.
func parseMatrix(b []byte, i int) ([][]float64, int) {
	width := 0
	return parseArray(b, i, 0, func(b []byte, i int) (row []float64, end int) {
		row, end = parseArray(b, i, width, parseFloat)
		width = len(row)
		return row, end
	})
}

// parseString parses a plain string.
func parseString(b []byte, i int) (string, int) {
	if i == len(b) || b[i] != '"' {
		return "", -1
	}
	end, plain := scanString(b, i)
	if end < 0 || !plain {
		return "", -1
	}
	return string(b[i+1 : end-1]), end
}

// parseFloat parses a number into a float64 with the call encoding/json
// makes; a number out of range is not taken.
func parseFloat(b []byte, i int) (float64, int) {
	end, _ := scanNumber(b, i)
	if end < 0 {
		return 0, -1
	}
	f, err := strconv.ParseFloat(string(b[i:end]), 64)
	if err != nil {
		return 0, -1
	}
	return f, end
}

// parseInt parses an integer into an int with the call encoding/json
// makes; a fraction, an exponent or a value out of range is not taken.
func parseInt(b []byte, i int) (int, int) {
	end, integer := scanNumber(b, i)
	if end < 0 || !integer {
		return 0, -1
	}
	n, err := strconv.ParseInt(string(b[i:end]), 10, 64)
	if err != nil || int64(int(n)) != n {
		return 0, -1
	}
	return int(n), end
}

func parseTaskID(b []byte, i int) (dag.TaskID, int) {
	n, end := parseInt(b, i)
	return dag.TaskID(n), end
}

// parseBool parses true or false.
func parseBool(b []byte, i int) (bool, int) {
	if end := scanLiteral(b, i, "true"); end >= 0 {
		return true, end
	}
	return false, scanLiteral(b, i, "false")
}
