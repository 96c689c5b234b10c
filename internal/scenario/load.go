package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"strconv"
	"strings"
)

// ParseError is a malformed-document error with the position of the
// problem: syntax errors, wrong types, unknown fields, trailing
// content. Load returns it (wrapped) so callers that present errors
// structurally — the nocserver 400 body — can extract line and column
// with errors.As instead of re-parsing the message.
type ParseError struct {
	Line, Col int
	Field     string // JSON path of an unknown field, e.g. "fabric.turbo"; "" otherwise
	Msg       string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
}

// Load reads, decodes, and validates one scenario. Errors carry either
// the line:column of the malformed JSON (syntax errors, wrong types,
// unknown fields — so a typoed field name is caught, not silently
// ignored; a *ParseError via errors.As) or the JSON path of the
// offending field (validation; a *FieldError).
func Load(r io.Reader) (*Scenario, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", describeJSONError(data, dec, err))
	}
	// A scenario file is one document; trailing content is a merge
	// accident worth naming.
	if dec.More() {
		line, col := lineCol(data, dec.InputOffset())
		return nil, fmt.Errorf("scenario: %w",
			&ParseError{Line: line, Col: col, Msg: "trailing content after the scenario document"})
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile is Load on a file path, with the path in every error.
func LoadFile(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	s, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Resolve is the lookup every CLI shares: a built-in name returns a
// deep copy from the registry, anything else is loaded as a file path,
// and the error for a miss lists the built-ins.
func Resolve(arg string) (*Scenario, error) {
	if s, ok := Get(arg); ok {
		return s, nil
	}
	if _, err := os.Stat(arg); err != nil {
		return nil, fmt.Errorf("scenario %q is neither a built-in (%s) nor a readable file",
			arg, strings.Join(Names(), ", "))
	}
	return LoadFile(arg)
}

// Save writes the scenario as indented JSON — the exact form Load
// reads, so Load∘Save is the identity on validated scenarios.
func (s *Scenario) Save(w io.Writer) error {
	b, err := s.Canonical()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// SaveFile is Save onto a file path.
func (s *Scenario) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if err := s.Save(f); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}

// describeJSONError turns encoding/json's errors into positioned
// *ParseError form. Syntax and type errors carry byte offsets; the
// unknown-field error (from DisallowUnknownFields) carries neither a
// position nor a path, so the document is walked against the schema to
// find the offending key.
func describeJSONError(data []byte, dec *json.Decoder, err error) error {
	switch e := err.(type) {
	case *json.SyntaxError:
		line, col := lineCol(data, e.Offset)
		return &ParseError{Line: line, Col: col, Msg: e.Error()}
	case *json.UnmarshalTypeError:
		line, col := lineCol(data, e.Offset)
		field := e.Field
		if field == "" {
			field = "document"
		}
		return &ParseError{Line: line, Col: col,
			Msg: fmt.Sprintf("%s: cannot decode JSON %s into %s", field, e.Value, e.Type)}
	}
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		line, col := lineCol(data, int64(len(data)))
		return &ParseError{Line: line, Col: col, Msg: "unexpected end of file (unbalanced braces?)"}
	}
	if strings.HasPrefix(err.Error(), "json: unknown field ") {
		field, off := "", dec.InputOffset()
		if p, o, ok := findUnknownField(json.NewDecoder(bytes.NewReader(data)), reflect.TypeOf(Scenario{}), ""); ok {
			field, off = p, o
		}
		line, col := lineCol(data, off)
		msg := fmt.Sprintf("%s (not part of scenario schema version %d; see docs/SCENARIOS.md)",
			strings.TrimPrefix(err.Error(), "json: "), Version)
		if field != "" {
			msg = field + ": " + msg
		}
		return &ParseError{Line: line, Col: col, Field: field, Msg: msg}
	}
	return err
}

// findUnknownField decodes the next value from dec against type t (nil
// accepts anything) and returns the JSON path and offset of the first
// object key t does not define. Keys match struct tags case-
// insensitively, as encoding/json matches them.
func findUnknownField(dec *json.Decoder, t reflect.Type, path string) (string, int64, bool) {
	for t != nil && t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	tok, err := dec.Token()
	if err != nil {
		return "", 0, false
	}
	switch tok {
	case json.Delim('{'):
		for dec.More() {
			key, err := dec.Token()
			if err != nil {
				return "", 0, false
			}
			name, _ := key.(string)
			sub := name
			if path != "" {
				sub = path + "." + name
			}
			var elem reflect.Type
			switch {
			case t == nil:
			case t.Kind() == reflect.Map:
				elem = t.Elem()
			case t.Kind() == reflect.Struct:
				f, ok := schemaField(t, name)
				if !ok {
					// The decoder sits just past the key; point at its
					// opening quote.
					return sub, dec.InputOffset() - int64(len(strconv.Quote(name))), true
				}
				elem = f.Type
			}
			if p, o, ok := findUnknownField(dec, elem, sub); ok {
				return p, o, true
			}
		}
		dec.Token() // closing brace
	case json.Delim('['):
		var elem reflect.Type
		if t != nil && (t.Kind() == reflect.Slice || t.Kind() == reflect.Array) {
			elem = t.Elem()
		}
		for i := 0; dec.More(); i++ {
			if p, o, ok := findUnknownField(dec, elem, fmt.Sprintf("%s[%d]", path, i)); ok {
				return p, o, true
			}
		}
		dec.Token() // closing bracket
	}
	return "", 0, false
}

// schemaField returns the field of struct t that JSON key name decodes
// into.
func schemaField(t reflect.Type, name string) (reflect.StructField, bool) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if tag == "" {
			tag = f.Name
		}
		if f.IsExported() && tag != "-" && strings.EqualFold(tag, name) {
			return f, true
		}
	}
	return reflect.StructField{}, false
}

// lineCol converts a byte offset into 1-based line and column.
func lineCol(data []byte, offset int64) (line, col int) {
	if offset > int64(len(data)) {
		offset = int64(len(data))
	}
	prefix := data[:offset]
	line = 1 + bytes.Count(prefix, []byte{'\n'})
	if i := bytes.LastIndexByte(prefix, '\n'); i >= 0 {
		col = int(offset) - i
	} else {
		col = int(offset) + 1
	}
	return line, col
}
