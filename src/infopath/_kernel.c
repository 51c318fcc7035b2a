/* The compiled step kernel: rank-1 GP updates and whole MCTS-DPW searches,
 * tree steps and uniform-random rollouts alike.
 *
 * infopath/kernel.py builds this file on first use, loads it with
 * ctypes.PyDLL and takes its entry points from functions(): Python builtins
 * that run holding the GIL and take numpy arrays as Python objects. Every
 * result equals the Python kernel's bit for bit: draws are numpy's own
 * random_normal and the Lemire bounded draw of numpy's
 * Generator.integers, the column product is the dgemv of the BLAS
 * numpy loaded with the arguments numpy's matmul passes it, the trace is
 * numpy's pairwise sum, and erf, rint, log and pow are libm's, checked on
 * load against math.erf, round, math.log and Python's float ** float. Build
 * with -ffp-contract=off: a fused multiply-add rounds once where numpy
 * rounds twice. -O3 vectorises update's loop over the query points and
 * pairwise's eight accumulators; without -ffast-math gcc never reassociates,
 * so each vector lane makes the scalar loop's IEEE operations, in its order.
 */
#define NPY_NO_DEPRECATED_API NPY_2_0_API_VERSION
#include <math.h>
#include <stdint.h>
#include <string.h>

#include "numpy/arrayobject.h"
#include "numpy/random/distributions.h"

/* cblas_dgemv and cblas_ddot of an ILP64 BLAS */
typedef void (*dgemv_t)(int order, int trans, int64_t m, int64_t n, double alpha,
                        const double *a, int64_t lda, const double *x, int64_t incx,
                        double beta, double *y, int64_t incy);
typedef double (*ddot_t)(int64_t n, const double *x, int64_t incx, const double *y,
                         int64_t incy);
enum { ROW_MAJOR = 101, TRANS = 112 };

static dgemv_t dgemv;
static ddot_t ddot;

void set_blas(void *gemv, void *dot)
{
    dgemv = (dgemv_t)gemv;
    ddot = (ddot_t)dot;
}

#define DATA(a) ((double *)PyArray_DATA((PyArrayObject *)(a)))
#define LENGTH(a) PyArray_DIM((PyArrayObject *)(a), 0)

/* Whether a is a C-contiguous float64 array of ndim dimensions, the first
 * len0 long (any length when len0 < 0) and a second len1 long; if not, a
 * ValueError names it. The kernel reads and writes the arrays it is handed
 * as raw memory. */
static int fits(PyObject *a, const char *name, int ndim, int64_t len0, int64_t len1)
{
    PyArrayObject *arr = (PyArrayObject *)a;
    if (PyArray_Check(a) && PyArray_TYPE(arr) == NPY_DOUBLE && PyArray_IS_C_CONTIGUOUS(arr) &&
        PyArray_NDIM(arr) == ndim && (len0 < 0 || PyArray_DIM(arr, 0) == len0) &&
        (ndim == 1 || PyArray_DIM(arr, 1) == len1))
        return 1;
    PyErr_Format(PyExc_ValueError, "%s is not a C-contiguous float64 array of the GP's shape",
                 name);
    return 0;
}

/* A GP's caches in an update: rows 0..m-1 of the whitened cross-covariance w
 * (q columns), the query mean and variance, and the factor's model. */
typedef struct {
    double *w, *mean, *var;
    const double *kqq;
    int64_t q, m;
    double jitter, floor;
} gp_t;

/* numpy's pairwise sum of a contiguous vector: 8 accumulators, blocks of 128 */
static double pairwise(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(a, n2) + pairwise(a + n2, n - n2);
}

/* One measurement at query point j: row m of w, and the mean and variance
 * updates. Returns 0, changing nothing, when the pivot has collapsed. */
static int update(gp_t *g, int64_t j, double val, double nu)
{
    const int64_t q = g->q, mc = g->m;
    const double d2 = g->var[j] + nu + g->jitter;
    if (d2 <= g->floor)
        return 0;
    const double d = sqrt(d2);
    const double a = (val - g->mean[j]) / d;
    const double *kj = g->kqq + j * q;
    double *row = g->w + mc * q;
    /* w[:mc].T @ w[:mc, j]: numpy gives zeros for mc == 0 (the BLAS would
     * leave row unwritten) and a dot product for q == 1 */
    if (mc == 0)
        memset(row, 0, q * sizeof(double));
    else if (q == 1)
        row[0] = 0. + ddot(mc, g->w, q, g->w + j, q);
    else
        dgemv(ROW_MAJOR, TRANS, mc, q, 1., g->w, q, g->w + j, q, 0., row, 1);
    for (int64_t i = 0; i < q; i++) {
        row[i] = (kj[i] - row[i]) / d;
        g->mean[i] += a * row[i];
        g->var[i] -= row[i] * row[i];
    }
    g->m = mc + 1;
    return 1;
}

/* The trace as numpy's np.add.reduce gives it: the identity plus the sum */
static double trace(const gp_t *g) { return 0. + pairwise(g->var, g->q); }

/* gp._rank1_update's updates for a sequence of (query index, value, noise
 * variance) sites, in place from row m of w, which has room for them.
 * Returns the new trace, or None when a pivot collapsed. */
static PyObject *rank1_update(PyObject *w, PyObject *mean, PyObject *var, PyObject *kqq,
                              double jitter, double floor, int64_t m, PyObject *sites)
{
    if (!fits(var, "var", 1, -1, 0) || !fits(mean, "mean", 1, LENGTH(var), 0) ||
        !fits(w, "w", 2, -1, LENGTH(var)) || !fits(kqq, "kqq", 2, LENGTH(var), LENGTH(var)))
        return NULL;
    gp_t g = {DATA(w), DATA(mean), DATA(var), DATA(kqq), LENGTH(var), m, jitter, floor};
    PyObject *seq = PySequence_Fast(sites, "sites must be a sequence");
    if (seq == NULL)
        return NULL;
    if (m < 0 || m + PySequence_Fast_GET_SIZE(seq) > LENGTH(w)) {
        Py_DECREF(seq);
        return PyErr_Format(PyExc_IndexError, "w has no room for the sites");
    }
    for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(seq); i++) {
        PyObject *site = PySequence_Fast(PySequence_Fast_GET_ITEM(seq, i),
                                         "a site must be a sequence");
        if (site == NULL || PySequence_Fast_GET_SIZE(site) != 3) {
            if (site != NULL)
                PyErr_SetString(PyExc_ValueError, "a site is (index, value, noise variance)");
            Py_XDECREF(site);
            Py_DECREF(seq);
            return NULL;
        }
        PyObject **item = PySequence_Fast_ITEMS(site);
        int64_t j = PyLong_AsLongLong(item[0]);
        const double val = PyFloat_AsDouble(item[1]), nu = PyFloat_AsDouble(item[2]);
        Py_DECREF(site);
        if (j < 0 && !PyErr_Occurred())
            j += g.q;
        if (!PyErr_Occurred() && (j < 0 || j >= g.q))
            PyErr_SetString(PyExc_IndexError, "site index out of the query set");
        if (PyErr_Occurred()) {
            Py_DECREF(seq);
            return NULL;
        }
        if (!update(&g, j, val, nu)) {
            Py_DECREF(seq);
            Py_RETURN_NONE;
        }
    }
    Py_DECREF(seq);
    return PyFloat_FromDouble(trace(&g));
}

/* Generator.integers(n) for 1 <= n < 2**32: numpy's Lemire rule on
 * next_uint32 */
static int64_t bounded(bitgen_t *b, uint64_t n)
{
    if (n == 1)
        return 0;
    uint64_t m = (uint64_t)b->next_uint32(b->state) * n;
    if ((uint32_t)m < n) {
        const uint32_t threshold = (uint32_t)(0u - (uint32_t)n) % (uint32_t)n;
        while ((uint32_t)m < threshold)
            m = (uint64_t)b->next_uint32(b->state) * n;
    }
    return (int64_t)(m >> 32);
}

/* An MDP's location tables, flat (mirrored by infopath.kernel.StepTables).
 * Location v's actions are the ids act_start[v] .. act_start[v + 1] - 1, in
 * table order; below cheapest[v], the least of their costs, it is terminal.
 * Action id s costs cost[s] and leads to target[s], from which the goal
 * costs back[s]: it is feasible at a budget when budget - cost[s] >= back[s].
 * Its kind[s] is STATIC, DRILL or VISIT (the step kinds of infopath.mdp). It
 * measures the sites site_start[s] .. site_start[s + 1] - 1: a static step
 * all of them, a drill or a visit its one site. The parameters of a drill or
 * a visit are params[param_start[s] .. param_start[s + 1]]: the interaction
 * reward, then a drill's match tolerance and its type values. */
enum { STATIC, DRILL, VISIT };
typedef struct {
    const double *cheapest;
    const int64_t *act_start;
    const double *cost, *back;
    const int64_t *target, *kind, *param_start;
    const double *params;
    const int64_t *site_start, *site_node;
    const double *site_nu;
    int64_t goal;
    double weight, failure;
} tables_t;

/* The action ids of location v feasible at a budget, written to ids in id
 * order; returns how many. */
static int64_t feasible(const tables_t *t, int64_t v, double budget, int64_t *ids)
{
    int64_t n = 0;
    for (int64_t s = t->act_start[v]; s < t->act_start[v + 1]; s++)
        if (budget - t->cost[s] >= t->back[s])
            ids[n++] = s;
    return n;
}

/* The search.
 *
 * infopath.mcts.simulate's recursion, action_prog_widen and rollout, and
 * BeliefMdp.generative_sample's tree step, over the integer action ids of
 * the tables. A tree belief's GP record keeps the k sites its step added
 * and their rows (rows m - k .. m - 1 of the whitened cross-covariance w),
 * its query mean, variance and trace, and a link to the record it extends;
 * CompiledSearch._gp builds a belief from it when one is read. A step
 * that adds no site shares its parent's record. The root record holds the
 * root belief's caches, and the walk holds the root's m rows from the
 * search's start on.
 *
 * One walk steps every tree step and rollout of a simulation in place: it
 * sets out from a belief node and reads that node's record until its first
 * update copies the rows of the records up to the root into its own rows
 * and its own query mean and variance. A tree step's new record is taken
 * from the walk, and the rollout goes on in the same walk.
 *
 * Steps return 0, -1 with the Python error set, or COLLAPSED when a pivot
 * collapsed: the search is then void, and infopath.mcts reruns the plan in
 * Python, whose batch rebuild this file does not repeat. All memory comes
 * from PyMem_*, which tracemalloc sees, and goes when the search's capsule
 * does. */
enum { COLLAPSED = 1 };

typedef struct {
    int64_t parent; /* the record this one extends; -1 at the root */
    int64_t m, k;
    double trace;
    double *rows, *mean, *var, *val, *nu; /* k rows of q, q, q, k, k */
    int64_t *node;                        /* k */
} record_t;

typedef struct {
    int64_t location, steps, visits, record;
    double budget, reward; /* reward: of the tree step that reached the node */
    PyObject *memory;      /* owned */
    int64_t first, last, n_children; /* action nodes, in the order they were added */
    int64_t sibling;                 /* the next successor of the same action node */
    int64_t untried, n_untried;      /* pool[untried ..]; untried < 0 until first use */
} belief_t;

typedef struct {
    int64_t action, visits, next; /* next: the belief node's next action node */
    double q;
    int64_t first, last, n_children; /* successor belief nodes */
} action_t;

typedef struct {
    gp_t g;                 /* g.w is the walk's rows; g.mean and g.var what it reads */
    int64_t source;         /* the record of the node the walk set out from */
    int own;                /* g.mean and g.var are the walk's copies */
    double *mean, *var;     /* the copies */
    double trace, budget;
    int64_t location, steps;
    PyObject *memory;       /* owned */
    int64_t added;          /* sites since the walk set out: */
    int64_t *node;
    double *val, *nu;
} walk_t;

typedef struct {
    const tables_t *t;
    bitgen_t *bitgen;
    int64_t q, max_depth, rows;
    double exploration, k_action, alpha_action, k_state, alpha_state, gamma;
    belief_t *beliefs;
    action_t *actions;
    int64_t *pool;
    record_t **records;
    int64_t n_beliefs, n_actions, n_pool, n_records;
    int64_t cap_beliefs, cap_actions, cap_pool, cap_records;
    walk_t walk;
    int is_void; /* a run stopped early, perhaps inside a simulation */
} search_t;

/* Room for `need` items in a growing array */
static int grow(void **array, int64_t *cap, int64_t need, size_t size)
{
    if (need <= *cap)
        return 0;
    int64_t n = *cap ? 2 * *cap : 64;
    while (n < need)
        n *= 2;
    void *p = PyMem_Realloc(*array, n * size);
    if (p == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    *array = p;
    *cap = n;
    return 0;
}
#define GROW(s, name, need) grow((void **)&(s)->name, &(s)->cap_##name, need, sizeof *(s)->name)

/* A record of k sites with its arrays, or NULL with the error set */
static record_t *new_record(search_t *s, int64_t parent, int64_t m, int64_t k)
{
    if (GROW(s, records, s->n_records + 1))
        return NULL;
    const int64_t q = s->q;
    record_t *r = PyMem_Malloc(sizeof *r + ((k + 2) * q + 2 * k) * sizeof(double) +
                               k * sizeof(int64_t));
    if (r == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    r->parent = parent;
    r->m = m;
    r->k = k;
    r->rows = (double *)(r + 1);
    r->mean = r->rows + k * q;
    r->var = r->mean + q;
    r->val = r->var + q;
    r->nu = r->val + k;
    r->node = (int64_t *)(r->nu + k);
    s->records[s->n_records++] = r;
    return r;
}

static void free_search(search_t *s)
{
    for (int64_t i = 0; i < s->n_records; i++)
        PyMem_Free(s->records[i]);
    for (int64_t i = 0; i < s->n_beliefs; i++)
        Py_DECREF(s->beliefs[i].memory);
    PyMem_Free(s->records);
    PyMem_Free(s->beliefs);
    PyMem_Free(s->actions);
    PyMem_Free(s->pool);
    Py_XDECREF(s->walk.memory);
    PyMem_Free(s->walk.g.w);
    PyMem_Free(s);
}

/* Set the walk out from belief node b. */
static void set_out(search_t *s, int64_t b)
{
    walk_t *k = &s->walk;
    const belief_t *node = &s->beliefs[b];
    const record_t *r = s->records[node->record];
    k->source = node->record;
    k->location = node->location;
    k->budget = node->budget;
    k->steps = node->steps;
    Py_INCREF(node->memory);
    Py_XSETREF(k->memory, node->memory);
    k->own = 0;
    k->added = 0;
    k->g.m = r->m;
    k->g.mean = r->mean;
    k->g.var = r->var;
    k->trace = r->trace;
}

/* The walk's first copy for an update: the rows of the records up to the
 * root, whose rows the walk already holds, and the query mean and
 * variance */
static void own(search_t *s)
{
    walk_t *k = &s->walk;
    const int64_t q = s->q;
    if (k->own)
        return;
    for (const record_t *r = s->records[k->source]; r->parent >= 0; r = s->records[r->parent])
        memcpy(k->g.w + (r->m - r->k) * q, r->rows, r->k * q * sizeof(double));
    memcpy(k->mean, k->g.mean, q * sizeof(double));
    memcpy(k->var, k->g.var, q * sizeof(double));
    k->g.mean = k->mean;
    k->g.var = k->var;
    k->own = 1;
}

/* A draw at query point j, as BeliefMdp.sample_observation makes it */
static double draw(const walk_t *k, bitgen_t *bitgen, int64_t j, double nu)
{
    const double v = k->g.var[j];
    return random_normal(bitgen, k->g.mean[j], sqrt((0. > v ? 0. : v) + nu));
}

/* add_measurements_at for n drawn sites */
static int measure(search_t *s, const int64_t *node, const double *nu, const double *val,
                   int64_t n)
{
    walk_t *k = &s->walk;
    if (k->g.m + n > s->rows) {
        PyErr_SetString(PyExc_RuntimeError, "the walk has no room for a step's sites");
        return -1;
    }
    own(s);
    for (int64_t i = 0; i < n; i++, k->added++) {
        k->node[k->added] = node[i];
        k->val[k->added] = val[i];
        k->nu[k->added] = nu[i];
    }
    for (int64_t i = 0; i < n; i++)
        if (!update(&k->g, node[i], val[i], nu[i]))
            return COLLAPSED;
    k->trace = trace(&k->g);
    return 0;
}

/* A static step: every draw reads the state before the step */
static int static_step(search_t *s, int64_t a)
{
    const tables_t *t = s->t;
    const int64_t first = t->site_start[a], n = t->site_start[a + 1] - first;
    if (n == 0)
        return 0;
    double val[n];
    for (int64_t i = 0; i < n; i++)
        val[i] = draw(&s->walk, s->bitgen, t->site_node[first + i], t->site_nu[first + i]);
    return measure(s, t->site_node + first, t->site_nu + first, val, n);
}

/* min(max(x, lo), hi) with Python's min and max, which keep a NaN */
static double clip(double x, double lo, double hi)
{
    x = lo > x ? lo : x;
    return hi < x ? hi : x;
}

/* rover._phi */
static double phi(double z) { return 0.5 * (1. + erf(z / sqrt(2.))); }

/* RoverMdp.probability_unseen at query point j, for the n type values tau
 * and the match tolerance delta: the collected types are summed in the
 * memory's own iteration order, which the sum's bits depend on. */
static int unseen(const walk_t *k, int64_t j, const double *tau, int64_t n, double delta,
                  double *p)
{
    const int collected = PyObject_IsTrue(k->memory);
    if (collected <= 0) {
        *p = 1.;
        return collected;
    }
    const double mu = k->g.mean[j], v = k->g.var[j];
    const double sigma = sqrt(1e-12 > v ? 1e-12 : v);
    double p_match = 0.;
    PyObject *it = PyObject_GetIter(k->memory), *item;
    if (it == NULL)
        return -1;
    while ((item = PyIter_Next(it)) != NULL) {
        int64_t i = PyLong_AsLongLong(item);
        Py_DECREF(item);
        if (i == -1 && PyErr_Occurred())
            break;
        if (i < 0) /* numpy's index from the end */
            i += n;
        if (i < 0 || i >= n) {
            PyErr_SetString(PyExc_IndexError, "a collected type is out of the type values");
            break;
        }
        p_match += phi((tau[i] + delta - mu) / sigma) - phi((tau[i] - delta - mu) / sigma);
    }
    Py_DECREF(it);
    *p = clip(1. - p_match, 0., 1.);
    return PyErr_Occurred() ? -1 : 0;
}

/* A drill or a visit, as BeliefMdp.generative_sample takes it through the
 * environment's hooks: the draw first, then the interaction reward and the
 * new memory from the state before the update, then the update. */
static int dynamic_step(search_t *s, int64_t a, double *state_reward)
{
    const tables_t *t = s->t;
    walk_t *k = &s->walk;
    const int64_t j = t->site_node[t->site_start[a]];
    const double nu = t->site_nu[t->site_start[a]];
    const double *param = t->params + t->param_start[a];
    const double r = param[0];
    PyObject *gained = NULL, *set = NULL, *memory = NULL;
    int rc = -1, visited = 0;
    double val = 0., p;
    if (t->kind[a] == VISIT &&
        ((gained = PyLong_FromLongLong(j)) == NULL ||
         (visited = PySequence_Contains(k->memory, gained)) < 0))
        goto done;
    if (!visited) {
        val = draw(k, s->bitgen, j, nu);
        if (t->kind[a] == DRILL) {
            const int64_t n = t->param_start[a + 1] - t->param_start[a] - 2;
            if (unseen(k, j, param + 2, n, param[1], &p))
                goto done;
            /* round() is half-even; a NaN raises ValueError, as int() does */
            gained = PyLong_FromDouble(rint(clip(val, 0., 1.) * (double)(n - 1)));
            if (gained == NULL)
                goto done;
        } else
            p = clip(k->g.mean[j], 0., 1.);
        *state_reward = r * p - r * (1. - p);
    }
    if ((set = PySet_New(NULL)) == NULL || PySet_Add(set, gained) ||
        (memory = PyNumber_Or(k->memory, set)) == NULL)
        goto done;
    Py_SETREF(k->memory, memory);
    memory = NULL;
    rc = visited ? 0 : measure(s, &j, &nu, &val, 1);
done:
    Py_XDECREF(gained);
    Py_XDECREF(set);
    Py_XDECREF(memory);
    return rc;
}

/* BeliefMdp.generative_sample of action a in the walk, with its
 * belief_reward */
static int step(search_t *s, int64_t a, double *reward)
{
    const tables_t *t = s->t;
    walk_t *k = &s->walk;
    const double before = k->trace;
    double state_reward = 0.;
    const int rc = t->kind[a] == STATIC ? static_step(s, a) : dynamic_step(s, a, &state_reward);
    if (rc)
        return rc;
    const int64_t to = k->location = t->target[a];
    k->budget -= t->cost[a];
    k->steps += 1;
    *reward = to != t->goal && k->budget < t->cheapest[to]
                  ? t->failure
                  : state_reward + t->weight * (before - k->trace);
    return 0;
}

/* mcts.rollout's loop in the walk: the discounted return of up to depth
 * uniform-random feasible steps */
static int rollout(search_t *s, int64_t depth, double *value)
{
    const tables_t *t = s->t;
    double total = 0., discount = 1.;
    for (; depth > 0; depth--) {
        const int64_t v = s->walk.location;
        if (s->walk.budget < t->cheapest[v]) /* terminal; v has actions otherwise */
            break;
        int64_t ids[t->act_start[v + 1] - t->act_start[v]];
        const int64_t n = feasible(t, v, s->walk.budget, ids);
        if (n == 0)
            break;
        double reward;
        int rc;
        if ((rc = step(s, ids[bounded(s->bitgen, n)], &reward)))
            return rc;
        total += discount * reward;
        discount *= s->gamma;
    }
    *value = total;
    return 0;
}

/* A new belief node, the walk's state reached by a step worth reward, as
 * the last successor of action node a (a < 0: the root); its record is the
 * one the walk set out from when the step added no site. Returns its
 * index, or -1 with the error set. */
static int64_t add_belief(search_t *s, int64_t a, double reward)
{
    const walk_t *k = &s->walk;
    int64_t record = k->source;
    if (k->added > 0) {
        const int64_t q = s->q, m = k->g.m, n = k->added;
        record_t *r = new_record(s, k->source, m, n);
        if (r == NULL)
            return -1;
        record = s->n_records - 1;
        memcpy(r->rows, k->g.w + (m - n) * q, n * q * sizeof(double));
        memcpy(r->mean, k->g.mean, q * sizeof(double));
        memcpy(r->var, k->g.var, q * sizeof(double));
        memcpy(r->node, k->node, n * sizeof(int64_t));
        memcpy(r->val, k->val, n * sizeof(double));
        memcpy(r->nu, k->nu, n * sizeof(double));
        r->trace = k->trace;
    }
    if (GROW(s, beliefs, s->n_beliefs + 1))
        return -1;
    const int64_t b = s->n_beliefs++;
    Py_INCREF(k->memory);
    s->beliefs[b] = (belief_t){.location = k->location, .steps = k->steps, .record = record,
                               .budget = k->budget, .reward = reward, .memory = k->memory,
                               .first = -1, .last = -1, .sibling = -1, .untried = -1};
    if (a >= 0) {
        action_t *an = &s->actions[a];
        if (an->last >= 0)
            s->beliefs[an->last].sibling = b;
        else
            an->first = b;
        an->last = b;
        an->n_children++;
    }
    return b;
}

/* action_prog_widen: a new action drawn from the untried ones while the
 * widening cap allows, then UCB. Returns the action node, or -1 with the
 * error set. */
static int64_t widen(search_t *s, int64_t b)
{
    belief_t *node = &s->beliefs[b];
    if (node->n_untried > 0 &&
        (double)node->n_children <= s->k_action * pow((double)node->visits, s->alpha_action)) {
        if (GROW(s, actions, s->n_actions + 1))
            return -1;
        int64_t *untried = s->pool + node->untried;
        const int64_t i = bounded(s->bitgen, node->n_untried);
        const int64_t a = s->n_actions++;
        s->actions[a] = (action_t){.action = untried[i], .next = -1, .first = -1, .last = -1};
        memmove(untried + i, untried + i + 1, (--node->n_untried - i) * sizeof(int64_t));
        if (node->last >= 0)
            s->actions[node->last].next = a;
        else
            node->first = a;
        node->last = a;
        node->n_children++;
    }
    const double log_n = node->visits > 0 ? log((double)node->visits) : 0.;
    int64_t best = -1;
    double best_score = -INFINITY;
    for (int64_t a = node->first; a >= 0; a = s->actions[a].next) {
        const action_t *an = &s->actions[a];
        if (an->visits == 0)
            return a;
        const double score = an->q + s->exploration * sqrt(log_n / (double)an->visits);
        if (score > best_score) {
            best_score = score;
            best = a;
        }
    }
    if (best < 0)
        PyErr_SetString(PyExc_ValueError, "no action scores above -inf");
    return best;
}

/* mcts.simulate from belief node b */
static int simulate(search_t *s, int64_t b, int64_t depth, double *q)
{
    const tables_t *t = s->t;
    belief_t *node = &s->beliefs[b];
    *q = 0.;
    const int64_t v = node->location;
    if (depth == 0 || node->budget < t->cheapest[v])
        return 0;
    if (node->n_children == 0) {
        if (node->untried < 0) { /* the feasible actions, on first use */
            if (GROW(s, pool, s->n_pool + t->act_start[v + 1] - t->act_start[v]))
                return -1;
            node->untried = s->n_pool;
            node->n_untried = feasible(t, v, node->budget, s->pool + s->n_pool);
            s->n_pool += node->n_untried;
        }
        if (node->n_untried == 0)
            return 0;
    }
    const int64_t a = widen(s, b);
    if (a < 0)
        return -1;
    const action_t *an = &s->actions[a];
    double reward, value;
    int rc;
    if ((double)an->n_children <= s->k_state * pow((double)an->visits, s->alpha_state)) {
        set_out(s, b);
        if ((rc = step(s, an->action, &reward)))
            return rc;
        if (add_belief(s, a, reward) < 0)
            return -1;
        rc = rollout(s, depth - 1, &value);
    } else {
        int64_t c = an->first;
        for (int64_t i = bounded(s->bitgen, an->n_children); i > 0; i--)
            c = s->beliefs[c].sibling;
        reward = s->beliefs[c].reward;
        rc = simulate(s, c, depth - 1, &value);
    }
    if (rc)
        return rc;
    *q = reward + s->gamma * value;
    action_t *updated = &s->actions[a];
    s->beliefs[b].visits += 1;
    updated->visits += 1;
    updated->q += (*q - updated->q) / (double)updated->visits;
    return 0;
}

/* The entry points as Python builtins, which skip ctypes' argument
 * conversion; pointers come as integer addresses, and a search as the
 * capsule that owns it. */

#define ARGS(name, count)                                                                    \
    (void)self;                                                                              \
    if (n != count)                                                                          \
        return PyErr_Format(PyExc_TypeError, name " takes " #count " arguments, not %zd", n)

static PyObject *py_rank1_update(PyObject *self, PyObject *const *a, Py_ssize_t n)
{
    ARGS("rank1_update", 8);
    const double jitter = PyFloat_AsDouble(a[4]), floor = PyFloat_AsDouble(a[5]);
    const int64_t m = PyLong_AsLongLong(a[6]);
    return PyErr_Occurred() ? NULL : rank1_update(a[0], a[1], a[2], a[3], jitter, floor, m, a[7]);
}

static const char SEARCH[] = "infopath.search";

static void drop_search(PyObject *capsule)
{
    free_search(PyCapsule_GetPointer(capsule, SEARCH));
}

/* search(tables, bitgen, (location, budget, step, memory), (rows, mean,
 * var, trace, kqq, jitter, floor), (max_depth, exploration, k_action,
 * alpha_action, k_state, alpha_state, discount), max_sites): a search from
 * the root belief's state and GP caches, whose steps measure at most
 * max_sites sites each. */
static PyObject *py_search(PyObject *self, PyObject *const *a, Py_ssize_t n)
{
    ARGS("search", 6);
    long long location, steps, max_depth;
    double budget, trace, jitter, floor;
    PyObject *memory, *rows, *mean, *var, *kqq;
    search_t *s = PyMem_Calloc(1, sizeof *s);
    if (s == NULL)
        return PyErr_NoMemory();
    s->t = PyLong_AsVoidPtr(a[0]);
    s->bitgen = PyLong_AsVoidPtr(a[1]);
    const int64_t max_sites = PyLong_AsLongLong(a[5]);
    if (PyErr_Occurred() ||
        !PyArg_ParseTuple(a[2], "LdLO", &location, &budget, &steps, &memory) ||
        !PyArg_ParseTuple(a[3], "OOOdOdd", &rows, &mean, &var, &trace, &kqq, &jitter, &floor) ||
        !PyArg_ParseTuple(a[4], "Ldddddd", &max_depth, &s->exploration, &s->k_action,
                          &s->alpha_action, &s->k_state, &s->alpha_state, &s->gamma)) {
        PyMem_Free(s);
        return NULL;
    }
    const int fit = fits(var, "var", 1, -1, 0) && fits(mean, "mean", 1, LENGTH(var), 0) &&
                    fits(rows, "rows", 2, -1, LENGTH(var)) &&
                    fits(kqq, "kqq", 2, LENGTH(var), LENGTH(var));
    if (!fit || max_depth < 0) {
        PyMem_Free(s);
        return fit ? PyErr_Format(PyExc_ValueError, "max_depth must not be negative") : NULL;
    }
    const int64_t q = LENGTH(var), m = LENGTH(rows);
    s->q = q;
    s->max_depth = max_depth;
    s->rows = m + max_depth * (max_sites > 1 ? max_sites : 1);
    /* the walk's rows, copies and sites, in one block of 8-byte words */
    walk_t *k = &s->walk;
    double *block = PyMem_Malloc(((s->rows + 2) * q + 3 * s->rows) * sizeof(double));
    k->g = (gp_t){block, NULL, NULL, DATA(kqq), q, m, jitter, floor};
    record_t *root = block == NULL ? NULL : new_record(s, -1, m, 0);
    if (root == NULL || GROW(s, beliefs, 1)) {
        if (!PyErr_Occurred())
            PyErr_NoMemory();
        free_search(s);
        return NULL;
    }
    k->mean = block + s->rows * q;
    k->var = k->mean + q;
    k->val = k->var + q;
    k->nu = k->val + s->rows;
    k->node = (int64_t *)(k->nu + s->rows);
    memcpy(k->g.w, DATA(rows), m * q * sizeof(double));
    memcpy(root->mean, DATA(mean), q * sizeof(double));
    memcpy(root->var, DATA(var), q * sizeof(double));
    root->trace = trace;
    s->beliefs[s->n_beliefs++] =
        (belief_t){.location = location, .steps = steps, .budget = budget,
                   .memory = Py_NewRef(memory), .first = -1, .last = -1, .sibling = -1,
                   .untried = -1};
    PyObject *capsule = PyCapsule_New(s, SEARCH, drop_search);
    if (capsule == NULL)
        free_search(s);
    return capsule;
}

/* The search of a[0] and the integer a[1] */
static search_t *search_and(PyObject *const *a, int64_t *i)
{
    search_t *s = PyCapsule_GetPointer(a[0], SEARCH);
    *i = PyLong_AsLongLong(a[1]);
    return PyErr_Occurred() ? NULL : s;
}

/* run(search, iterations): that many simulations of the search's max_depth
 * from the root, one after another, as infopath.mcts.search runs them in
 * Python. True when all ran; False when a pivot collapsed. Signals are
 * handled after every simulation, so a long run stops on Ctrl-C. The cyclic
 * collector is off for the run: the ISRS memory sets it allocates would
 * otherwise start collections inside it, whose finalizers run Python code,
 * and a signal handled there raises in a finalizer, where the exception is
 * reported and dropped. A run that does not finish voids the search, and a
 * run of a void search raises. */
static PyObject *py_run(PyObject *self, PyObject *const *a, Py_ssize_t n)
{
    ARGS("run", 2);
    int64_t iterations;
    search_t *s = search_and(a, &iterations);
    if (s == NULL)
        return NULL;
    if (s->is_void)
        return PyErr_Format(PyExc_RuntimeError, "the search is void: a run of it stopped early");
    if (iterations < 0)
        return PyErr_Format(PyExc_ValueError, "iterations must not be negative");
    const int collecting = PyGC_Disable();
    int rc = 0;
    for (int64_t i = 0; i < iterations && !rc; i++) {
        double q;
        rc = simulate(s, 0, s->max_depth, &q);
        if (!rc && PyErr_CheckSignals())
            rc = -1;
    }
    if (collecting)
        PyGC_Enable();
    if (!rc)
        Py_RETURN_TRUE;
    s->is_void = 1;
    if (rc == COLLAPSED)
        Py_RETURN_FALSE;
    return NULL;
}

/* node(search, i): belief node i's (visits, untried action ids or None,
 * action nodes as (index, action id, visits, q), location, budget, memory,
 * step, GP record) */
static PyObject *py_node(PyObject *self, PyObject *const *a, Py_ssize_t n)
{
    ARGS("node", 2);
    int64_t i;
    search_t *s = search_and(a, &i);
    if (s == NULL)
        return NULL;
    if (i < 0 || i >= s->n_beliefs)
        return PyErr_Format(PyExc_IndexError, "no belief node %lld", (long long)i);
    const belief_t *node = &s->beliefs[i];
    PyObject *untried = node->untried < 0 ? Py_NewRef(Py_None) : PyTuple_New(node->n_untried);
    PyObject *children = PyTuple_New(node->n_children);
    for (int64_t j = 0; node->untried >= 0 && untried != NULL && j < node->n_untried; j++) {
        PyObject *action = PyLong_FromLongLong(s->pool[node->untried + j]);
        if (action == NULL)
            Py_CLEAR(untried);
        else
            PyTuple_SET_ITEM(untried, j, action);
    }
    int64_t j = 0;
    for (int64_t x = node->first; children != NULL && x >= 0; x = s->actions[x].next, j++) {
        const action_t *an = &s->actions[x];
        PyObject *child = Py_BuildValue("(LLLd)", (long long)x, (long long)an->action,
                                        (long long)an->visits, an->q);
        if (child == NULL)
            Py_CLEAR(children);
        else
            PyTuple_SET_ITEM(children, j, child);
    }
    if (untried == NULL || children == NULL) {
        Py_XDECREF(untried);
        Py_XDECREF(children);
        return NULL;
    }
    return Py_BuildValue("(LNNLdOLL)", (long long)node->visits, untried, children,
                         (long long)node->location, node->budget, node->memory,
                         (long long)node->steps, (long long)node->record);
}

/* action(search, x): action node x's successors as (belief node index,
 * reward) */
static PyObject *py_action(PyObject *self, PyObject *const *a, Py_ssize_t n)
{
    ARGS("action", 2);
    int64_t x;
    search_t *s = search_and(a, &x);
    if (s == NULL)
        return NULL;
    if (x < 0 || x >= s->n_actions)
        return PyErr_Format(PyExc_IndexError, "no action node %lld", (long long)x);
    const action_t *an = &s->actions[x];
    PyObject *out = PyTuple_New(an->n_children);
    int64_t j = 0;
    for (int64_t c = an->first; out != NULL && c >= 0; c = s->beliefs[c].sibling, j++) {
        PyObject *edge = Py_BuildValue("(Ld)", (long long)c, s->beliefs[c].reward);
        if (edge == NULL)
            Py_CLEAR(out);
        else
            PyTuple_SET_ITEM(out, j, edge);
    }
    return out;
}

/* The GP record a[1] of the search a[0], whose query set has q points */
static const record_t *record_of(PyObject *const *a, int64_t *q)
{
    int64_t r;
    search_t *s = search_and(a, &r);
    if (s != NULL && (r < 0 || r >= s->n_records))
        PyErr_Format(PyExc_IndexError, "no GP record %lld", (long long)r);
    if (PyErr_Occurred())
        return NULL;
    *q = s->q;
    return s->records[r];
}

/* record(search, r): GP record r's (parent record or -1, trace, sites as
 * (node, value, noise variance) tuples) */
static PyObject *py_record(PyObject *self, PyObject *const *a, Py_ssize_t n)
{
    ARGS("record", 2);
    int64_t q;
    const record_t *r = record_of(a, &q);
    if (r == NULL)
        return NULL;
    PyObject *sites = PyTuple_New(r->k);
    for (int64_t i = 0; sites != NULL && i < r->k; i++) {
        PyObject *site = Py_BuildValue("(Ldd)", (long long)r->node[i], r->val[i], r->nu[i]);
        if (site == NULL)
            Py_CLEAR(sites);
        else
            PyTuple_SET_ITEM(sites, i, site);
    }
    return sites == NULL ? NULL : Py_BuildValue("(LdN)", (long long)r->parent, r->trace, sites);
}

/* arrays(search, r, rows, mean, var): copy GP record r's k rows, query mean
 * and variance into C-contiguous float64 arrays of (k, q), q and q */
static PyObject *py_arrays(PyObject *self, PyObject *const *a, Py_ssize_t n)
{
    ARGS("arrays", 5);
    int64_t q;
    const record_t *r = record_of(a, &q);
    if (r == NULL || !fits(a[2], "rows", 2, r->k, q) || !fits(a[3], "mean", 1, q, 0) ||
        !fits(a[4], "var", 1, q, 0))
        return NULL;
    memcpy(DATA(a[2]), r->rows, r->k * q * sizeof(double));
    memcpy(DATA(a[3]), r->mean, q * sizeof(double));
    memcpy(DATA(a[4]), r->var, q * sizeof(double));
    Py_RETURN_NONE;
}

static PyObject *py_bounded(PyObject *self, PyObject *const *a, Py_ssize_t n)
{
    ARGS("bounded", 2);
    bitgen_t *bitgen = PyLong_AsVoidPtr(a[0]);
    const unsigned long long range = PyLong_AsUnsignedLongLong(a[1]);
    if (PyErr_Occurred())
        return NULL;
    if (range < 1 || range > UINT32_MAX)
        return PyErr_Format(PyExc_ValueError, "bounded takes 1 <= n < 2**32");
    return PyLong_FromLongLong(bounded(bitgen, range));
}

static PyObject *py_normal(PyObject *self, PyObject *const *a, Py_ssize_t n)
{
    ARGS("normal", 3);
    bitgen_t *bitgen = PyLong_AsVoidPtr(a[0]);
    const double loc = PyFloat_AsDouble(a[1]), scale = PyFloat_AsDouble(a[2]);
    return PyErr_Occurred() ? NULL : PyFloat_FromDouble(random_normal(bitgen, loc, scale));
}

/* libm's f(x), and pow, for the load checks */
#define LIBM(f)                                                                              \
    static PyObject *py_##f(PyObject *self, PyObject *const *a, Py_ssize_t n)                \
    {                                                                                        \
        ARGS(#f, 1);                                                                         \
        const double x = PyFloat_AsDouble(a[0]);                                             \
        return PyErr_Occurred() ? NULL : PyFloat_FromDouble(f(x));                           \
    }
LIBM(erf)
LIBM(rint)
LIBM(log)

static PyObject *py_pow(PyObject *self, PyObject *const *a, Py_ssize_t n)
{
    ARGS("pow", 2);
    const double x = PyFloat_AsDouble(a[0]), y = PyFloat_AsDouble(a[1]);
    return PyErr_Occurred() ? NULL : PyFloat_FromDouble(pow(x, y));
}

#define FASTCALL(f) (PyCFunction)(void (*)(void))(f), METH_FASTCALL
static PyMethodDef methods[] = {
    {"rank1_update", FASTCALL(py_rank1_update),
     "rank1_update(w, mean, var, kqq, jitter, floor, m, sites) -> trace or None"},
    {"search", FASTCALL(py_search),
     "search(tables, bitgen, state, gp, config, max_sites) -> a search"},
    {"run", FASTCALL(py_run),
     "run(search, iterations) -> True when every simulation ran, False when a pivot "
     "collapsed"},
    {"node", FASTCALL(py_node),
     "node(search, i) -> (visits, untried, actions, location, budget, memory, step, record) "
     "of belief node i"},
    {"action", FASTCALL(py_action),
     "action(search, x) -> ((belief node, reward), ...) of action node x"},
    {"record", FASTCALL(py_record),
     "record(search, r) -> (parent record or -1, trace, sites) of GP record r"},
    {"arrays", FASTCALL(py_arrays),
     "arrays(search, r, rows, mean, var): copy GP record r's rows, query mean and variance"},
    {"bounded", FASTCALL(py_bounded), "bounded(bitgen, n): Generator.integers(n)"},
    {"normal", FASTCALL(py_normal), "normal(bitgen, loc, scale): Generator.normal(loc, scale)"},
    {"erf", FASTCALL(py_erf), "erf(x): the erf of the kernel's libm"},
    {"rint", FASTCALL(py_rint), "rint(x): the rint of the kernel's libm"},
    {"log", FASTCALL(py_log), "log(x): the log of the kernel's libm"},
    {"pow", FASTCALL(py_pow), "pow(x, y): the pow of the kernel's libm"},
    {NULL, NULL, 0, NULL}};

/* {name: builtin} of every entry point */
PyObject *functions(void)
{
    if (PyArray_ImportNumPyAPI() < 0)
        return NULL;
    PyObject *out = PyDict_New();
    for (PyMethodDef *d = methods; out != NULL && d->ml_name != NULL; d++) {
        PyObject *f = PyCFunction_New(d, NULL);
        if (f == NULL || PyDict_SetItemString(out, d->ml_name, f) < 0)
            Py_CLEAR(out);
        Py_XDECREF(f);
    }
    return out;
}
