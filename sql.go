package secyan

import (
	"context"

	"secyan/internal/sqlfront"
)

// SQL front end: a small SQL subset — exactly the free-connex
// join-aggregate class the protocol evaluates — compiled to secure query
// plans. See package internal/sqlfront for the grammar; in short:
//
//	SELECT r3.class, SUM(r2.cost * (100 - r1.coinsurance))
//	FROM r1, r2, r3
//	WHERE r1.person = r2.person AND r2.disease = r3.disease
//	  AND r1.state IN (3, 5)
//	GROUP BY r3.class
//
// One aggregate per query (SUM of a product of columns/constants,
// COUNT(*), or AVG — compiled as the §7 sum/count composition);
// equality joins; private selections against constants (including
// 'YYYY-MM-DD' date literals).

type (
	// SQLCatalog maps table names to their (per-party) definitions.
	SQLCatalog = sqlfront.Catalog
	// SQLTable defines one catalog table: owner, public columns and
	// size, plus the data on the owner's side.
	SQLTable = sqlfront.TableDef
)

// ExecSQL parses src, type-checks it against this party's catalog and
// runs it on its own stream. Both parties execute the same statement
// against their own catalog views (identical apart from which tables
// carry data) concurrently. Alice receives the result relation; Bob
// receives nil.
func (s *Session) ExecSQL(ctx context.Context, src string, cat *SQLCatalog, opts ...Option) (*Relation, error) {
	st, err := sqlfront.Parse(src)
	if err != nil {
		return nil, err
	}
	c, err := sqlfront.Compile(st, cat)
	if err != nil {
		return nil, err
	}
	if err := c.Check(); err != nil {
		return nil, err
	}
	x, err := s.admit(ctx, s.cfg.with(opts), "sql", false)
	if err != nil {
		return nil, err
	}
	defer x.cancel()
	defer x.p.Conn.Close()
	rel, err := c.Exec(x.ctx, x.p, x.opts)
	return rel, s.labeled(x.id, err)
}

// NewSQLTable builds a catalog entry. Pass rel only on the owner's side.
func NewSQLTable(owner Role, columns []Attr, n int, rel *Relation) *SQLTable {
	return &sqlfront.TableDef{Owner: owner, Columns: columns, N: n, Rel: rel}
}
