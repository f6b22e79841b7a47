// Package sqldb is an embedded relational database engine written from
// scratch for the EASIA reproduction. It provides the subset of SQL the
// archive needs — DDL with PRIMARY KEY / FOREIGN KEY / UNIQUE / NOT NULL
// constraints, DML, and SELECT with joins, aggregation, ordering and
// limits — plus the SQL/MED DATALINK column type with transactional
// link control hooks, write-ahead logging and snapshot persistence.
//
// The engine stands in for the commercial ORDBMS the paper used.
package sqldb

import (
	"fmt"
	"strings"
)

// tokKind classifies lexical tokens.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokSymbol // ( ) , ; . * = < > <= >= <> != + - / % ||
)

type token struct {
	kind tokKind
	text string // keywords are upper-cased; identifiers preserve case but match case-insensitively
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of statement"
	}
	return fmt.Sprintf("%q", t.text)
}

// keywords recognised by the lexer. Anything else alphabetic is an
// identifier. Keeping the set explicit lets identifiers reuse most words.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "AND": true, "OR": true,
	"NOT": true, "INSERT": true, "INTO": true, "VALUES": true, "UPDATE": true,
	"SET": true, "DELETE": true, "CREATE": true, "TABLE": true, "DROP": true,
	"INDEX": true, "ON": true, "PRIMARY": true, "KEY": true, "FOREIGN": true,
	"REFERENCES": true, "UNIQUE": true, "NULL": true, "DEFAULT": true,
	"ORDER": true, "BY": true, "GROUP": true, "HAVING": true, "LIMIT": true,
	"OFFSET": true, "ASC": true, "DESC": true, "JOIN": true, "INNER": true,
	"LEFT": true, "OUTER": true, "AS": true, "DISTINCT": true, "LIKE": true,
	"IN": true, "BETWEEN": true, "IS": true, "TRUE": true, "FALSE": true,
	"INTEGER": true, "INT": true, "BIGINT": true, "DOUBLE": true, "FLOAT": true,
	"PRECISION": true, "VARCHAR": true, "CHAR": true, "BOOLEAN": true,
	"TIMESTAMP": true, "BLOB": true, "CLOB": true, "DATALINK": true,
	"LINKTYPE": true, "URL": true, "FILE": true, "LINK": true, "CONTROL": true,
	"NO": true, "INTEGRITY": true, "ALL": true, "SELECTIVE": true, "READ": true,
	"WRITE": true, "PERMISSION": true, "DB": true, "FS": true, "BLOCKED": true,
	"RECOVERY": true, "YES": true, "UNLINK": true, "RESTORE": true,
	"EXPIRY": true, "BEGIN": true, "COMMIT": true, "ROLLBACK": true,
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
	"CASCADE": true, "RESTRICT": true, "IF": true, "EXISTS": true, "CONSTRAINT": true,
	"USING": true, "HASH": true, "ORDERED": true,
}

// lex converts an SQL string into tokens. It reports errors with byte
// offsets so the web layer can show the failing position.
func lex(sql string) ([]token, error) {
	var toks []token
	i := 0
	n := len(sql)
	for i < n {
		c := sql[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && sql[i+1] == '-': // line comment
			for i < n && sql[i] != '\n' {
				i++
			}
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			for {
				if i >= n {
					return nil, fmt.Errorf("sqldb: unterminated string literal at offset %d", start)
				}
				if sql[i] == '\'' {
					if i+1 < n && sql[i+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					break
				}
				sb.WriteByte(sql[i])
				i++
			}
			toks = append(toks, token{tokString, sb.String(), start})
		case c >= '0' && c <= '9' || (c == '.' && i+1 < n && sql[i+1] >= '0' && sql[i+1] <= '9'):
			start := i
			seenDot := false
			for i < n {
				d := sql[i]
				if d >= '0' && d <= '9' {
					i++
					continue
				}
				if d == '.' && !seenDot {
					seenDot = true
					i++
					continue
				}
				if (d == 'e' || d == 'E') && i+1 < n {
					j := i + 1
					if sql[j] == '+' || sql[j] == '-' {
						j++
					}
					if j < n && sql[j] >= '0' && sql[j] <= '9' {
						i = j + 1
						for i < n && sql[i] >= '0' && sql[i] <= '9' {
							i++
						}
						seenDot = true // force float
					}
				}
				break
			}
			toks = append(toks, token{tokNumber, sql[start:i], start})
		case isIdentStart(c):
			start := i
			for i < n && isIdentPart(sql[i]) {
				i++
			}
			word := sql[start:i]
			up := strings.ToUpper(word)
			if keywords[up] {
				toks = append(toks, token{tokKeyword, up, start})
			} else {
				toks = append(toks, token{tokIdent, word, start})
			}
		case c == '"': // quoted identifier
			start := i
			i++
			j := strings.IndexByte(sql[i:], '"')
			if j < 0 {
				return nil, fmt.Errorf("sqldb: unterminated quoted identifier at offset %d", start)
			}
			toks = append(toks, token{tokIdent, sql[i : i+j], start})
			i += j + 1
		default:
			start := i
			two := ""
			if i+1 < n {
				two = sql[i : i+2]
			}
			switch two {
			case "<=", ">=", "<>", "!=", "||":
				toks = append(toks, token{tokSymbol, two, start})
				i += 2
				continue
			}
			switch c {
			case '(', ')', ',', ';', '.', '*', '=', '<', '>', '+', '-', '/', '%', '?':
				toks = append(toks, token{tokSymbol, string(c), start})
				i++
			default:
				return nil, fmt.Errorf("sqldb: unexpected character %q at offset %d", c, i)
			}
		}
	}
	toks = append(toks, token{tokEOF, "", n})
	return toks, nil
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9' || c == '$' || c == '#'
}
